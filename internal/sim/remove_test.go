package sim

import "testing"

// TestRemoveDeletesEagerly pins what removing an event from the queue
// means: Cancel drops it from Pending at once, the events around it
// still fire in order, and canceling a fired, an already-canceled or a
// zero handle changes nothing.
func TestRemoveDeletesEagerly(t *testing.T) {
	e := NewEngine()
	var fired []string
	mk := func(name string) func() { return func() { fired = append(fired, name) } }
	e.After(1, mk("a"))
	hb := e.After(1, mk("b"))
	hc := e.After(1, mk("c"))

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
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "c" {
		t.Fatalf("fired %v, want [a c]", fired)
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
	log := func() { fired = append(fired, e.Now()) }
	var handles []Handle
	for _, at := range []Time{5, 1, 4, 2, 3, 6, 0.5} {
		h, err := e.At(at, log)
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
