package sim

import "testing"

// The engine benchmarks model the shapes the harness actually produces:
// a large standing population of timers at a small set of regular
// deltas (maintenance heartbeats, radio deliveries), churned by
// schedule/cancel/fire cycles. EXPERIMENTS.md records their numbers
// for each engine the repo has had. They are timing references, not
// gates: the engine's exact contract is pinned by
// TestEngineMatchesHeapRef and TestEngineSteadyStateZeroAllocs, and
// events per workload by the pin tests in the root package's
// bench_test.go.

// BenchmarkEngineSchedule is the steady-state schedule+fire cycle: a
// warmed queue of pending events at the workload's regular deltas, each
// iteration scheduling one event and firing the earliest. This is the
// path every radio delivery and heartbeat pays.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	nop := nopKind(e)
	const pending = 8192
	for i := 0; i < pending; i++ {
		e.After(1+float64(i%64)/8, nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(8, nop, 0)
		e.Step()
	}
}

// BenchmarkEngineSteadyChurn is the maintenance-era mix: every
// iteration queues a heartbeat and a retry, cancels the retry again,
// and fires one event, so the live population stays constant while
// canceled events stream through the queue.
func BenchmarkEngineSteadyChurn(b *testing.B) {
	e := NewEngine()
	nop := nopKind(e)
	const ring = 4096
	handles := make([]Handle, ring)
	for i := range handles {
		handles[i] = e.After(1+float64(i%17)/17, nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % ring
		retry := e.After(1+float64(j%17)/17, nop, 0)
		handles[j] = e.After(1+float64(j%17)/17, nop, 0)
		retry.Cancel()
		e.Step()
	}
}

// BenchmarkEngineRunUntilCanceled drains a queue that is 90% canceled
// events through RunUntil — the StopMaintenance/retry-suppression
// shape. RunUntil peeks at the heap's top and pops that same entry,
// one scan per fired event.
func BenchmarkEngineRunUntilCanceled(b *testing.B) {
	handles := make([]Handle, 0, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine()
		nop := nopKind(e)
		handles = handles[:0]
		for k := 0; k < 10000; k++ {
			h, err := e.At(float64(k)/100, nop, 0)
			if err != nil {
				b.Fatal(err)
			}
			handles = append(handles, h)
		}
		for k, h := range handles {
			if k%10 != 0 {
				h.Cancel()
			}
		}
		b.StartTimer()
		if fired := e.RunUntil(100); fired != 1000 {
			b.Fatalf("fired %d events, want 1000", fired)
		}
	}
}
