package sim

import "testing"

// TestRemoveDeletesEagerly pins what removing an event from the queue
// means: Cancel drops it from Pending at once, the events around it
// still fire in order, and canceling a fired, an already-canceled or a
// zero handle changes nothing.
func TestRemoveDeletesEagerly(t *testing.T) {
	e := NewEngine()
	var fired []int32
	k := logKind(e, &fired)
	e.After(1, k, 'a')
	hb := e.After(1, k, 'b')
	hc := e.After(1, k, 'c')

	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	hb.Cancel()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after Cancel = %d, want 2 (eager deletion)", got)
	}
	if !hb.Canceled() {
		t.Fatal("canceled handle not marked canceled")
	}

	e.Run(0)
	if len(fired) != 2 || fired[0] != 'a' || fired[1] != 'c' {
		t.Fatalf("fired %q, want [a c]", fired)
	}

	// Canceling a fired, an already-canceled, or a zero handle is a
	// no-op.
	hc.Cancel()
	hb.Cancel()
	Handle{}.Cancel()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after no-op cancels = %d, want 0", got)
	}
}

// TestRemoveKeepsHeapOrder cancels events out of the middle of the
// queue and checks that the survivors still fire in time order.
func TestRemoveKeepsHeapOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	k := e.Register(func(int32) { fired = append(fired, e.Now()) })
	var handles []Handle
	for _, at := range []Time{5, 1, 4, 2, 3, 6, 0.5} {
		h, err := e.At(at, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	handles[0].Cancel() // at=5
	handles[3].Cancel() // at=2
	e.Run(0)
	want := []Time{0.5, 1, 3, 4, 6}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestHandleKeyOrder pins the key-order rule that replaced the pooled,
// generation-counted handles: an event is gone exactly when its key is
// at or before the last key popped, fired or drained.
func TestHandleKeyOrder(t *testing.T) {
	t.Run("cancel after fire is a no-op", func(t *testing.T) {
		e := NewEngine()
		k := nopKind(e)
		h := e.After(1, k, 0)
		e.After(2, k, 0)
		e.Step()
		h.Cancel()
		if h.Canceled() || e.Pending() != 1 {
			t.Fatalf("after canceling a fired event: Canceled=%v Pending=%d, want false and 1", h.Canceled(), e.Pending())
		}
	})
	t.Run("cancel after drain decrements Pending once", func(t *testing.T) {
		e := NewEngine()
		var log []int32
		k := logKind(e, &log)
		e.After(1, k, 1)
		e.Step() // Now = 1
		h := e.After(0, k, 2)
		e.After(1, k, 3)
		h.Cancel()
		if !h.Canceled() || e.Pending() != 1 {
			t.Fatalf("before the drain: Canceled=%v Pending=%d, want true and 1", h.Canceled(), e.Pending())
		}
		// NextEventTime drains the canceled entry, due at Now, off the
		// top; nothing fires before the second Cancel.
		if got := e.NextEventTime(); got != 2 {
			t.Fatalf("NextEventTime = %v, want 2", got)
		}
		if h.Canceled() {
			t.Fatal("Canceled() still true after the entry was drained")
		}
		h.Cancel()
		if e.Pending() != 1 {
			t.Fatalf("Pending = %d after canceling a drained event, want 1", e.Pending())
		}
		e.Run(0)
		if len(log) != 2 || log[1] != 3 {
			t.Fatalf("fired %v, want [1 3]", log)
		}
	})
	t.Run("zero handle is a no-op", func(t *testing.T) {
		e := NewEngine()
		e.After(1, nopKind(e), 0)
		var zero Handle
		zero.Cancel()
		if zero.Canceled() || e.Pending() != 1 {
			t.Fatalf("zero handle: Canceled=%v Pending=%d, want false and 1", zero.Canceled(), e.Pending())
		}
	})
	// A canceled entry due after Now may sit on top while an earlier
	// event is scheduled. NextEventTime must not drain it ahead of the
	// clock: the earlier event's key would then be behind the last key
	// popped, and its Handle would read as gone.
	t.Run("no drain ahead of the clock", func(t *testing.T) {
		e := NewEngine()
		var log []int32
		k := logKind(e, &log)
		e.After(7, k, 7).Cancel()
		e.After(9, k, 9)
		if got := e.NextEventTime(); got != 9 {
			t.Fatalf("NextEventTime = %v, want 9", got)
		}
		h := e.After(1, k, 1)
		h.Cancel()
		if !h.Canceled() || e.Pending() != 1 {
			t.Fatalf("Canceled=%v Pending=%d, want true and 1", h.Canceled(), e.Pending())
		}
		e.Run(0)
		if len(log) != 1 || log[0] != 9 {
			t.Fatalf("fired %v, want [9]", log)
		}
	})
}
