// Package sim implements the discrete-event simulation engine that
// drives the GS³ network harness.
//
// Time is virtual, represented as a float64 number of abstract seconds.
// Events are ordered by time with a stable sequence-number tie-break so
// that runs are fully deterministic: two events scheduled for the same
// instant fire in scheduling order. The queue is a 4-ary min-heap on
// (at, seq); since seq is unique, that pair is a strict total order,
// and popping the heap's minimum fires events in exactly that order.
//
// # Kinds
//
// An event is a kind and an int32 payload. Each owner registers its
// kinds once, with one handler each (Register), and schedules events
// of a kind with a payload that tells the handler what the event is
// about: a node ID, a packet index, a batch index. The heap entry
// {at, seq, payload, kind} is the whole event. Firing one calls the
// kind's handler with the payload and reads nothing else, and
// scheduling allocates nothing once the heap has reached its steady
// capacity.
//
// # Concurrency
//
// The engine is deliberately single-threaded: an Engine and the
// handlers it calls must be owned by exactly one goroutine for the
// engine's whole lifetime. Nothing in this package locks, and nothing
// may be shared. Determinism depends on this — a second goroutine
// touching the queue would make the event order (and therefore every
// simulation result) scheduling-dependent. Parallelism lives one level
// up: run many engines, one per independent trial, each on its own
// goroutine (see internal/runner).
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a virtual-time instant in abstract seconds. It is a plain
// value; copies are independent.
type Time = float64

// Kind names a family of events that share one handler. Register hands
// kinds out; they are only meaningful on the engine that issued them.
type Kind int32

// entry is one scheduled event, 24 bytes: its fire-order key (at, seq)
// and the kind and payload its firing dispatches.
type entry struct {
	at      Time
	seq     uint64
	payload int32
	kind    Kind
}

// before is the fire order: (at, seq) ascending.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// ErrEventInPast is returned by Engine.At when an event is scheduled
// before the current virtual time.
var ErrEventInPast = errors.New("sim: event scheduled in the past")

// ErrTimeNotFinite is returned by Engine.At when an event is scheduled
// at NaN or +Inf: firing it would leave Now without a finite value.
var ErrTimeNotFinite = errors.New("sim: event time is not finite")

// Engine is a deterministic discrete-event scheduler.
//
// An Engine is not safe for concurrent use: all scheduling, stepping,
// and querying must happen on the single goroutine that owns the
// engine. One simulation trial owns one engine; independent trials on
// separate goroutines (each with their own Engine) need no
// synchronization because engines share no state.
type Engine struct {
	now     Time
	nextSeq uint64
	fired   uint64

	// handlers maps each registered Kind to its handler.
	handlers []func(payload int32)

	// heap is a 4-ary min-heap under entry.before: the children of
	// heap[i] are heap[4i+1 : 4i+5].
	heap []entry
}

// NewEngine returns an engine at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Register adds a kind of event whose firing calls fn with the event's
// payload, and returns it. Each owner registers its kinds once, when it
// attaches to the engine.
func (e *Engine) Register(fn func(payload int32)) Kind {
	e.handlers = append(e.handlers, fn)
	return Kind(len(e.handlers) - 1)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time {
	return e.now
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 {
	return e.fired
}

// Scheduled returns the number of events ever scheduled (the next
// sequence number). Two equal readings prove no event was scheduled in
// between — the primitive batching callers use to detect that another
// event's ordering position falls between two of their additions.
func (e *Engine) Scheduled() uint64 {
	return e.nextSeq
}

// Pending returns the number of events still queued: scheduled and not
// yet fired.
func (e *Engine) Pending() int {
	return len(e.heap)
}

// At schedules an event of kind k carrying payload at absolute time at.
// It returns ErrEventInPast if at precedes Now, and ErrTimeNotFinite if
// at is NaN or +Inf. It panics if k was not registered on this engine.
func (e *Engine) At(at Time, k Kind, payload int32) error {
	if at < e.now {
		return ErrEventInPast
	}
	if math.IsNaN(at) || math.IsInf(at, 1) {
		return ErrTimeNotFinite
	}
	if uint(k) >= uint(len(e.handlers)) {
		panic(fmt.Sprintf("sim: event kind %d is not registered", k))
	}
	e.push(entry{at: at, seq: e.nextSeq, payload: payload, kind: k})
	e.nextSeq++
	return nil
}

// After schedules an event of kind k carrying payload delay seconds
// from now. Negative delays are clamped to zero. After has no error to
// return and must not drop the event, so a delay that puts the event
// at a time At rejects (NaN, infinite) panics.
func (e *Engine) After(delay float64, k Kind, payload int32) {
	if delay < 0 {
		delay = 0
	}
	if err := e.At(e.now+delay, k, payload); err != nil {
		panic(fmt.Sprintf("sim: After(%v): %v", delay, err))
	}
}

// push adds ent to the heap, sifting it up past every parent it fires
// before.
func (e *Engine) push(ent entry) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ent.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
	e.heap = h
}

// pop removes the heap's top entry: the last entry takes its place and
// sifts down past every child that fires before it.
func (e *Engine) pop() {
	n := len(e.heap) - 1
	last := e.heap[n]
	h := e.heap[:n]
	e.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
}

// fire pops the heap's top entry, advances the clock to it, and calls
// its kind's handler.
func (e *Engine) fire() {
	ent := e.heap[0]
	e.pop()
	e.now = ent.at
	e.fired++
	e.handlers[ent.kind](ent.payload)
}

// Step fires the next event. It returns false when no event is queued.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run fires events until the queue is empty or until maxEvents events
// have fired (0 means no limit). It returns the number of events fired
// by this call.
func (e *Engine) Run(maxEvents uint64) uint64 {
	var n uint64
	for maxEvents == 0 || n < maxEvents {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil fires events with At ≤ deadline. Events scheduled beyond the
// deadline remain queued; the engine's clock is advanced to the deadline
// if it ran dry earlier. It returns the number of events fired. A NaN
// deadline fires nothing.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var n uint64
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.fire()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// NextEventTime returns the time of the earliest pending event, or +Inf
// if none is pending.
func (e *Engine) NextEventTime() Time {
	if len(e.heap) == 0 {
		return math.Inf(1)
	}
	return e.heap[0].at
}
