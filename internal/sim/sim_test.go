package sim

import (
	"errors"
	"math"
	"testing"
)

// logKind registers a kind whose handler appends each fired payload to
// *log.
func logKind(e *Engine, log *[]int32) Kind {
	return e.Register(func(p int32) { *log = append(*log, p) })
}

// nopKind registers a kind whose handler does nothing.
func nopKind(e *Engine) Kind {
	return e.Register(func(int32) {})
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int32
	k := logKind(e, &order)
	e.After(3, k, 3)
	e.After(1, k, 1)
	e.After(2, k, 2)
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestTieBreakIsSchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int32
	k := logKind(e, &order)
	for _, p := range []int32{7, 3, 5} {
		e.After(5, k, p)
	}
	e.Run(0)
	if order[0] != 7 || order[1] != 3 || order[2] != 5 {
		t.Errorf("tie-break order = %v", order)
	}
}

func TestKindsDispatchToTheirHandlers(t *testing.T) {
	e := NewEngine()
	var a, b []int32
	ka, kb := logKind(e, &a), logKind(e, &b)
	e.After(1, kb, 10)
	e.After(2, ka, 20)
	e.After(3, kb, 30)
	e.Run(0)
	if len(a) != 1 || a[0] != 20 || len(b) != 2 || b[0] != 10 || b[1] != 30 {
		t.Errorf("kind a fired %v, kind b fired %v", a, b)
	}
}

func TestAtUnregisteredKindPanics(t *testing.T) {
	e := NewEngine()
	nopKind(e)
	defer func() {
		if recover() == nil {
			t.Error("At with an unregistered kind did not panic")
		}
	}()
	e.At(1, 1, 0)
}

func TestAtInPast(t *testing.T) {
	e := NewEngine()
	k := nopKind(e)
	e.After(10, k, 0)
	e.Run(0)
	if err := e.At(5, k, 0); !errors.Is(err, ErrEventInPast) {
		t.Errorf("err = %v, want ErrEventInPast", err)
	}
}

// TestAtRejectsNonFiniteTimes is the regression test for a NaN time
// poisoning the clock: At used to accept NaN, which fired at an
// arbitrary heap position and left Now at NaN, after which the past
// check passed for every time.
func TestAtRejectsNonFiniteTimes(t *testing.T) {
	e := NewEngine()
	k := nopKind(e)
	for _, at := range []Time{math.NaN(), math.Inf(1)} {
		if err := e.At(at, k, 0); !errors.Is(err, ErrTimeNotFinite) {
			t.Errorf("At(%v): err = %v, want ErrTimeNotFinite", at, err)
		}
	}
	if err := e.At(math.Inf(-1), k, 0); !errors.Is(err, ErrEventInPast) {
		t.Errorf("At(-Inf): err = %v, want ErrEventInPast", err)
	}
	if e.Pending() != 0 || e.Scheduled() != 0 {
		t.Errorf("rejected events were queued: Pending=%d Scheduled=%d", e.Pending(), e.Scheduled())
	}
	e.After(1, k, 0)
	e.Run(0)
	if e.Now() != 1 {
		t.Errorf("Now = %v, want 1", e.Now())
	}
}

// TestAfterPanicsOnNonFiniteDelay pins that After never drops an event
// silently: it has no error to return, so a delay At would reject
// panics.
func TestAfterPanicsOnNonFiniteDelay(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			e := NewEngine()
			k := nopKind(e)
			defer func() {
				if recover() == nil {
					t.Errorf("After(%v) did not panic", d)
				}
			}()
			e.After(d, k, 0)
		}()
	}
}

func TestRunUntilNaNDeadlineFiresNothing(t *testing.T) {
	e := NewEngine()
	var log []int32
	k := logKind(e, &log)
	e.After(1, k, 1)
	if n := e.RunUntil(math.NaN()); n != 0 || len(log) != 0 || e.Now() != 0 {
		t.Errorf("RunUntil(NaN) fired %d events (%v), Now = %v", n, log, e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	var log []int32
	e.After(-3, logKind(e, &log), 1)
	e.Run(0)
	if len(log) != 1 || e.Now() != 0 {
		t.Errorf("fired=%v now=%v", log, e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var times []Time
	var k Kind
	k = e.Register(func(p int32) {
		times = append(times, e.Now())
		if p == 0 {
			e.After(2, k, 1)
		}
	})
	e.After(1, k, 0)
	e.Run(0)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestRunMaxEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick Kind
	tick = e.Register(func(int32) {
		count++
		e.After(1, tick, 0)
	})
	e.After(1, tick, 0)
	n := e.Run(10)
	if n != 10 || count != 10 {
		t.Errorf("n=%d count=%d", n, count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int32
	k := logKind(e, &fired)
	for _, at := range []int32{1, 2, 3, 4, 5} {
		e.After(float64(at), k, at)
	}
	n := e.RunUntil(3)
	if n != 3 || len(fired) != 3 {
		t.Errorf("fired %d events (%v), want 3", n, fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

func TestRunUntilAdvancesClockWhenDry(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Errorf("Now = %v, want 42", e.Now())
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine()
	if !math.IsInf(e.NextEventTime(), 1) {
		t.Error("empty queue should report +Inf")
	}
	k := nopKind(e)
	e.After(7, k, 0)
	e.After(9, k, 0)
	if e.NextEventTime() != 7 {
		t.Errorf("NextEventTime = %v", e.NextEventTime())
	}
	e.Step()
	if e.NextEventTime() != 9 {
		t.Errorf("NextEventTime after a fire = %v", e.NextEventTime())
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	k := nopKind(e)
	for i := 0; i < 4; i++ {
		e.After(1, k, 0)
	}
	e.Run(0)
	if e.Fired() != 4 {
		t.Errorf("Fired = %d", e.Fired())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var log []Time
		// The payload is the recursion depth.
		var recur Kind
		recur = e.Register(func(depth int32) {
			log = append(log, e.Now())
			if depth < 3 {
				e.After(0.5, recur, depth+1)
				e.After(0.25, recur, depth+1)
			}
		})
		e.After(1, recur, 0)
		e.Run(0)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
