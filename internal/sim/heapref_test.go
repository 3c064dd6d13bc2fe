package sim

// This file preserves the engine's original container/heap binary
// heap, verbatim except for renames, as a test-only oracle. The
// lockstep property test (engine_property_test.go) drives it and the
// live Engine through identical operation sequences and asserts that
// every observable — fire order, Now, Fired, Pending — matches, which
// pins the live 4-ary heap to this engine's exact (At, seq) total
// order.
//
// One deliberate divergence: the heap engine's Pending() counted
// canceled-but-undrained events (the over-count the live counter
// fixed), so the oracle exposes livePending() — an O(n) scan for
// non-canceled queued events — as the reference for the fixed
// semantics.

import (
	"container/heap"
	"math"
)

type heapEvent struct {
	At   Time
	Name string
	Fn   func()

	seq      uint64
	index    int
	canceled bool
}

type heapHandle struct {
	ev *heapEvent
}

func (h heapHandle) Cancel() {
	if h.ev != nil {
		h.ev.canceled = true
	}
}

func (h heapHandle) Canceled() bool {
	return h.ev != nil && h.ev.canceled
}

func (e *heapEngine) Remove(h heapHandle) {
	if h.ev == nil {
		return
	}
	h.ev.canceled = true
	if h.ev.index >= 0 {
		heap.Remove(&e.queue, h.ev.index)
	}
}

type heapEventQueue []*heapEvent

func (q heapEventQueue) Len() int { return len(q) }
func (q heapEventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q heapEventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *heapEventQueue) Push(x any) {
	ev := x.(*heapEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *heapEventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

type heapEngine struct {
	now     Time
	queue   heapEventQueue
	nextSeq uint64
	fired   uint64
}

func newHeapEngine() *heapEngine {
	return &heapEngine{}
}

func (e *heapEngine) Now() Time         { return e.now }
func (e *heapEngine) Fired() uint64     { return e.fired }
func (e *heapEngine) Scheduled() uint64 { return e.nextSeq }

// livePending counts queued, non-canceled events: the reference for the
// live Engine's fixed Pending semantics (the original heap Pending
// returned len(queue), canceled included).
func (e *heapEngine) livePending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
}

func (e *heapEngine) At(at Time, name string, fn func()) (heapHandle, error) {
	if at < e.now {
		return heapHandle{}, ErrEventInPast
	}
	ev := &heapEvent{At: at, Name: name, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return heapHandle{ev: ev}, nil
}

func (e *heapEngine) After(delay float64, name string, fn func()) heapHandle {
	if delay < 0 {
		delay = 0
	}
	h, _ := e.At(e.now+delay, name, fn)
	return h
}

func (e *heapEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*heapEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.At
		e.fired++
		ev.Fn()
		return true
	}
	return false
}

func (e *heapEngine) Run(maxEvents uint64) uint64 {
	var n uint64
	for maxEvents == 0 || n < maxEvents {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

func (e *heapEngine) RunUntil(deadline Time) uint64 {
	var n uint64
	for len(e.queue) > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.At > deadline {
			break
		}
		if e.Step() {
			n++
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

func (e *heapEngine) RunWhile(cond func() bool, maxEvents uint64) (uint64, bool) {
	var n uint64
	for cond() {
		if maxEvents > 0 && n >= maxEvents {
			return n, false
		}
		if !e.Step() {
			return n, false
		}
		n++
	}
	return n, true
}

func (e *heapEngine) peek() *heapEvent {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.canceled {
			return ev
		}
		heap.Pop(&e.queue)
	}
	return nil
}

func (e *heapEngine) NextEventTime() Time {
	if ev := e.peek(); ev != nil {
		return ev.At
	}
	return math.Inf(1)
}
