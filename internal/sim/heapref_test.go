package sim

// This file preserves the engine's original container/heap binary
// heap, verbatim except for renames and for its cancellation, which the
// engine no longer has, as a test-only oracle. The lockstep property
// test (engine_property_test.go) drives it and the live Engine through
// identical operation sequences and asserts that every observable —
// fire order, Now, Fired, Pending — matches, which pins the live radix
// heap to this engine's exact (At, seq) total order.

import (
	"container/heap"
	"math"
)

type heapEvent struct {
	At   Time
	Name string
	Fn   func()

	seq   uint64
	index int
}

type heapHandle struct {
	ev *heapEvent
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
func (e *heapEngine) Pending() int      { return len(e.queue) }

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
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*heapEvent)
	e.now = ev.At
	e.fired++
	ev.Fn()
	return true
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
	if len(e.queue) == 0 {
		return nil
	}
	return e.queue[0]
}

func (e *heapEngine) NextEventTime() Time {
	if ev := e.peek(); ev != nil {
		return ev.At
	}
	return math.Inf(1)
}
