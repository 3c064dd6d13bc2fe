package sim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// TestEngineMatchesHeapRef drives the calendar-queue Engine and the
// retired binary-heap engine (heapref_test.go) through identical
// randomized At/After/Cancel/Step/Run/RunUntil/RunWhile sequences and asserts that every observable matches after every
// operation: the exact fire order (event ids in sequence), Now, Fired,
// Scheduled, Pending (vs the oracle's livePending), and NextEventTime.
// Fired callbacks occasionally schedule zero-delay and short-delay
// follow-ups, which exercises inserts into the bucket being drained.
// `make race` runs this under the race detector.
func TestEngineMatchesHeapRef(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lockstep(t, seed, 2000)
		})
	}
}

// side is one engine's half of the lockstep state: its fire log and the
// counter chained callbacks draw follow-up ids from. Fire order is
// asserted identical after every operation, so the two sides' chain
// counters advance in lockstep and chained ids stay comparable.
type side struct {
	log     []int
	chainID int
}

type lockstepHandle struct {
	n        Handle
	r        heapHandle
	id       int
	canceled bool
}

func lockstep(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	ref := newHeapEngine()
	var ns, rs side
	fired := make(map[int]bool) // ids whose events have fired (either side; order is pinned equal)
	var handles []*lockstepHandle
	nextID := 1000000 // chained ids count down from here; driver ids count up from 0
	ns.chainID, rs.chainID = nextID, nextID
	checked := 0 // logs compared up to this index

	// mkFn builds the callback for one scheduled id on one side: it
	// records the fire, and with the given chain depth schedules a
	// follow-up at zero or sub-bucket delay — the mid-drain insert path.
	var mkFn func(s *side, schedule func(float64, func()), id, chain int) func()
	mkFn = func(s *side, schedule func(float64, func()), id, chain int) func() {
		return func() {
			s.log = append(s.log, id)
			fired[id] = true
			if chain > 0 {
				cid := s.chainID
				s.chainID++
				delay := 0.0
				if chain%2 == 0 {
					delay = 0.25
				}
				schedule(delay, mkFn(s, schedule, cid, chain-1))
			}
		}
	}
	scheduleN := func(d float64, fn func()) { eng.After(d, fn) }
	scheduleR := func(d float64, fn func()) { ref.After(d, "chain", fn) }

	check := func(op string) {
		t.Helper()
		if len(ns.log) != len(rs.log) {
			t.Fatalf("%s: fired %d events, oracle fired %d", op, len(ns.log), len(rs.log))
		}
		for ; checked < len(ns.log); checked++ {
			if ns.log[checked] != rs.log[checked] {
				t.Fatalf("%s: fire order diverged at event %d: got id %d, oracle id %d",
					op, checked, ns.log[checked], rs.log[checked])
			}
		}
		if eng.Now() != ref.Now() {
			t.Fatalf("%s: Now=%v, oracle %v", op, eng.Now(), ref.Now())
		}
		if eng.Fired() != ref.Fired() {
			t.Fatalf("%s: Fired=%d, oracle %d", op, eng.Fired(), ref.Fired())
		}
		if eng.Scheduled() != ref.Scheduled() {
			t.Fatalf("%s: Scheduled=%d, oracle %d", op, eng.Scheduled(), ref.Scheduled())
		}
		if got, want := eng.Pending(), ref.livePending(); got != want {
			t.Fatalf("%s: Pending=%d, oracle live count %d", op, got, want)
		}
		gn, rn := eng.NextEventTime(), ref.NextEventTime()
		if gn != rn && !(math.IsInf(gn, 1) && math.IsInf(rn, 1)) {
			t.Fatalf("%s: NextEventTime=%v, oracle %v", op, gn, rn)
		}
	}

	// Quantized delays collide times often, exercising the seq
	// tie-break; the occasional huge delay exercises the overflow tier.
	delay := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(4000)) // far future: overflow tier
		default:
			return float64(rng.Intn(64)) / 8
		}
	}

	for op := 0; op < ops; op++ {
		id := op
		switch k := rng.Intn(100); {
		case k < 35: // After
			d := delay()
			chain := 0
			if rng.Intn(8) == 0 {
				chain = 1 + rng.Intn(2)
			}
			h := &lockstepHandle{id: id}
			h.n = eng.After(d, mkFn(&ns, scheduleN, id, chain))
			h.r = ref.After(d, "ev", mkFn(&rs, scheduleR, id, chain))
			handles = append(handles, h)
			check("After")
		case k < 45: // At, sometimes in the past
			at := eng.Now() + delay() - float64(rng.Intn(3))
			h := &lockstepHandle{id: id}
			var errN, errR error
			h.n, errN = eng.At(at, mkFn(&ns, scheduleN, id, 0))
			h.r, errR = ref.At(at, "ev", mkFn(&rs, scheduleR, id, 0))
			if (errN != nil) != (errR != nil) {
				t.Fatalf("At(%v): err=%v, oracle err=%v", at, errN, errR)
			}
			if errN == nil {
				handles = append(handles, h)
			}
			check("At")
		case k < 60 && len(handles) > 0: // Cancel
			h := handles[rng.Intn(len(handles))]
			h.n.Cancel()
			h.r.Cancel()
			if !fired[h.id] && !h.canceled {
				h.canceled = true
				if !h.n.Canceled() || !h.r.Canceled() {
					t.Fatalf("Cancel id %d: Canceled=%v, oracle %v", h.id, h.n.Canceled(), h.r.Canceled())
				}
			}
			check("Cancel")
		case k < 70 && len(handles) > 0: // Cancel vs the oracle's eager heap removal
			h := handles[rng.Intn(len(handles))]
			h.n.Cancel()
			ref.Remove(h.r)
			if !fired[h.id] && !h.canceled {
				h.canceled = true
				if !h.n.Canceled() {
					t.Fatalf("Cancel (oracle Remove) id %d: Canceled=false", h.id)
				}
			}
			check("Remove")
		case k < 82: // Step
			if gotN, gotR := eng.Step(), ref.Step(); gotN != gotR {
				t.Fatalf("Step=%v, oracle %v", gotN, gotR)
			}
			check("Step")
		case k < 92: // RunUntil
			deadline := eng.Now() + rng.Float64()*10
			if n, r := eng.RunUntil(deadline), ref.RunUntil(deadline); n != r {
				t.Fatalf("RunUntil(%v) fired %d, oracle %d", deadline, n, r)
			}
			check("RunUntil")
		case k < 96: // Run with a small cap
			limit := uint64(rng.Intn(5))
			if n, r := eng.Run(limit), ref.Run(limit); n != r {
				t.Fatalf("Run(%d) fired %d, oracle %d", limit, n, r)
			}
			check("Run")
		default: // RunWhile toward a shared fired target
			target := eng.Fired() + uint64(rng.Intn(4))
			n, okN := eng.RunWhile(func() bool { return eng.Fired() < target }, 10)
			r, okR := ref.RunWhile(func() bool { return ref.Fired() < target }, 10)
			if n != r || okN != okR {
				t.Fatalf("RunWhile fired %d (ok=%v), oracle %d (ok=%v)", n, okN, r, okR)
			}
			check("RunWhile")
		}
	}
	// Drain both to the end: the full residual queues must agree too.
	if n, r := eng.Run(0), ref.Run(0); n != r {
		t.Fatalf("final drain fired %d, oracle %d", n, r)
	}
	check("drain")
	if eng.Pending() != 0 {
		t.Fatalf("drained engine reports Pending=%d", eng.Pending())
	}
}

// TestPendingExcludesCanceled is the regression test for the Pending
// over-count: canceled-but-undrained events used to inflate the count
// that shard.go's quiescence gate and the StopMaintenance tests read.
func TestPendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	a := e.After(1, nop)
	b := e.After(2, nop)
	e.After(3, nop)
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending=%d, want 3", got)
	}
	a.Cancel()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after Cancel=%d, want 2 (canceled event must not count)", got)
	}
	a.Cancel() // double-cancel must not double-decrement
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after double Cancel=%d, want 2", got)
	}
	b.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after second Cancel=%d, want 1", got)
	}
	if !e.Step() {
		t.Fatal("Step fired nothing; want event c")
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after final fire=%d, want 0", got)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired=%d, want 1 (a and b were canceled)", e.Fired())
	}
}

// TestEngineSteadyStateZeroAllocs pins the steady-state schedule+fire
// cycle — the path every radio delivery and heartbeat pays — at zero
// allocations: the event pool recycles slots and the wheel's buckets
// reach a steady capacity, after which After+Step allocate nothing.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 8192; i++ {
		e.After(1+float64(i%64)/8, nop)
	}
	// Warm through several full wheel-rebuild cycles so every bucket
	// and the pool free list reach their steady capacities.
	for i := 0; i < 200000; i++ {
		e.After(8, nop)
		e.Step()
	}
	allocs := testing.AllocsPerRun(10000, func() {
		e.After(8, nop)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After+Step allocates %v allocs/op, want 0", allocs)
	}
}

// TestEngineSmokeMillionEvents is the scale gate for the calendar
// queue, run by `make engine-smoke` under the race detector: a
// million-event schedule/cancel/fire churn with a sliding
// ~100k-pending window, followed by a wide 300k-pending drain, all
// with exact fire-order and live-count accounting asserted.
func TestEngineSmokeMillionEvents(t *testing.T) {
	if os.Getenv("GS3_ENGINE_SMOKE") == "" {
		t.Skip("set GS3_ENGINE_SMOKE=1 to run the million-event engine smoke")
	}
	rng := rand.New(rand.NewSource(10))
	e := NewEngine()
	var fired, scheduled, canceled uint64
	lastAt, lastSeq := math.Inf(-1), uint64(0)
	fn := func(at Time, seq uint64) func() {
		return func() {
			if at < lastAt || (at == lastAt && seq <= lastSeq) {
				t.Fatalf("fire order violated: (%v, %d) after (%v, %d)", at, seq, lastAt, lastSeq)
			}
			lastAt, lastSeq = at, seq
			fired++
		}
	}
	schedule := func(d float64) Handle {
		seq := e.Scheduled()
		at := e.Now() + d
		h := e.After(d, fn(at, seq))
		scheduled++
		return h
	}

	// Phase 1: sliding-window churn. Keep ~100k live events pending;
	// each round schedules a burst, cancels a third of it, and
	// steps the engine forward.
	window := make([]Handle, 0, 120000)
	for scheduled < 700000 {
		for b := 0; b < 64; b++ {
			d := float64(rng.Intn(512)) / 16
			if rng.Intn(100) == 0 {
				d = float64(1000 + rng.Intn(2000)) // overflow tier
			}
			window = append(window, schedule(d))
		}
		for b := 0; b < 21; b++ {
			i := rng.Intn(len(window))
			h := window[i]
			if h.Canceled() {
				continue
			}
			was := e.Pending()
			h.Cancel()
			switch e.Pending() {
			case was - 1: // live handle: cancel must drop the count by one
				canceled++
			case was: // already fired: stale handle, cancel is a no-op
			default:
				t.Fatalf("Pending %d -> %d on cancel, want -1 or unchanged", was, e.Pending())
			}
		}
		if len(window) > 110000 {
			window = window[len(window)-100000:]
		}
		for b := 0; b < 40; b++ {
			e.Step()
		}
		if uint64(e.Pending())+fired+canceled != scheduled {
			t.Fatalf("accounting: pending %d + fired %d + canceled %d != scheduled %d",
				e.Pending(), fired, canceled, scheduled)
		}
	}

	// Phase 2: wide drain. Pile 300k more events across a broad time
	// span onto the queue, then drain everything.
	for i := 0; i < 300000; i++ {
		schedule(float64(rng.Intn(1<<20)) / 32)
	}
	e.Run(0)
	if e.Pending() != 0 {
		t.Fatalf("Pending=%d after full drain", e.Pending())
	}
	if fired+canceled != scheduled {
		t.Fatalf("final accounting: fired %d + canceled %d != scheduled %d", fired, canceled, scheduled)
	}
	if e.Fired() != fired {
		t.Fatalf("engine Fired=%d, callbacks counted %d", e.Fired(), fired)
	}
	t.Logf("smoke: scheduled %d, fired %d, canceled %d", scheduled, fired, canceled)
}
