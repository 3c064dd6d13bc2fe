package sim

import (
	"errors"
	"math"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(3, func() { order = append(order, 3) })
	e.After(1, func() { order = append(order, 1) })
	e.After(2, func() { order = append(order, 2) })
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
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		e.After(5, func() { order = append(order, name) })
	}
	e.Run(0)
	if order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Errorf("tie-break order = %v", order)
	}
}

func TestAtInPast(t *testing.T) {
	e := NewEngine()
	e.After(10, func() {})
	e.Run(0)
	if _, err := e.At(5, func() {}); !errors.Is(err, ErrEventInPast) {
		t.Errorf("err = %v, want ErrEventInPast", err)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-3, func() { fired = true })
	e.Run(0)
	if !fired || e.Now() != 0 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.After(1, func() { fired = true })
	h.Cancel()
	if !h.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	e.Run(0)
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelIdempotent(t *testing.T) {
	e := NewEngine()
	h := e.After(1, func() {})
	h.Cancel()
	h.Cancel() // must not panic
	var zero Handle
	zero.Cancel() // zero handle must not panic
	if zero.Canceled() {
		t.Error("zero handle reports canceled")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run(0)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestRunMaxEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(1, tick)
	}
	e.After(1, tick)
	n := e.Run(10)
	if n != 10 || count != 10 {
		t.Errorf("n=%d count=%d", n, count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.After(at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(3)
	if n != 3 {
		t.Errorf("fired %d events, want 3", n)
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
	h := e.After(7, func() {})
	e.After(9, func() {})
	if e.NextEventTime() != 7 {
		t.Errorf("NextEventTime = %v", e.NextEventTime())
	}
	h.Cancel()
	if e.NextEventTime() != 9 {
		t.Errorf("NextEventTime after cancel = %v", e.NextEventTime())
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.After(1, func() {})
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
		var recur func(depth int) func()
		recur = func(depth int) func() {
			return func() {
				log = append(log, e.Now())
				if depth < 3 {
					e.After(0.5, recur(depth+1))
					e.After(0.25, recur(depth+1))
				}
			}
		}
		e.After(1, recur(0))
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
