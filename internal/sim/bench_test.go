package sim

import (
	"math/rand"
	"testing"
)

// The engine benchmarks model the shapes the harness actually produces:
// a large standing population of timers at a small set of regular
// deltas (maintenance heartbeats, radio deliveries), churned by
// schedule/fire cycles. EXPERIMENTS.md records their numbers for each
// engine the repo has had. They are timing references, not gates: the
// engine's exact contract is pinned by TestEngineMatchesHeapRef and
// TestEngineSteadyStateZeroAllocs, and events per workload by the pin
// tests in the root package's bench_test.go.

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
// iteration queues a heartbeat and a retry and fires two events, so the
// population stays constant while retries, which find nothing left to
// do, stream through the queue as no-ops.
func BenchmarkEngineSteadyChurn(b *testing.B) {
	e := NewEngine()
	nop := nopKind(e)
	const ring = 4096
	for i := 0; i < ring; i++ {
		e.After(1+float64(i%17)/17, nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := 1 + float64(i%ring%17)/17
		e.After(d, nop, 0) // retry
		e.After(d, nop, 0) // heartbeat
		e.Step()
		e.Step()
	}
}

// BenchmarkEngineDeepQueue is the traffic workload's queue: ~56k hops
// pending on average at continuous delays of 0.001 + dist/SR. It keeps
// 65,536 events pending, and each iteration fires the earliest and
// schedules one After(0.001 + U[0,1)), the delays drawn up front from a
// fixed-seed source so the loop times the engine alone.
func BenchmarkEngineDeepQueue(b *testing.B) {
	e := NewEngine()
	nop := nopKind(e)
	const pending = 1 << 16
	src := rand.New(rand.NewSource(1))
	delays := make([]float64, pending)
	for i := range delays {
		delays[i] = 0.001 + src.Float64()
	}
	for _, d := range delays {
		e.After(d, nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.After(delays[i%pending], nop, 0)
	}
}
