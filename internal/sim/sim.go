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
// # Event pool
//
// Event records are pooled: firing or canceling-and-draining an event
// returns its slot to a free list, and steady-state schedule/fire churn
// allocates nothing. Handles are generation counted — a Handle carries
// the unique sequence number of the event it was issued for, and every
// Handle operation first checks that the slot still holds that
// sequence number. A slot recycled to a new event no longer matches, so
// Cancel/Canceled on a stale Handle are safe no-ops rather than actions
// on an unrelated event. Cancel is lazy: a canceled event keeps its
// heap entry, and its slot is freed when the entry reaches the top.
//
// # Concurrency
//
// The engine is deliberately single-threaded: an Engine, the events it
// fires, and every Handle it hands out must be owned by exactly one
// goroutine for the engine's whole lifetime. Nothing in this package
// locks, and nothing may be shared. Determinism depends on this — a
// second goroutine touching the queue would make the event order (and
// therefore every simulation result) scheduling-dependent. Parallelism
// lives one level up: run many engines, one per independent trial,
// each on its own goroutine (see internal/runner).
package sim

import (
	"errors"
	"math"
)

// Time is a virtual-time instant in abstract seconds. It is a plain
// value; copies are independent.
type Time = float64

// event is one pooled slot of the engine's event store. A slot's
// identity is its seq: freeing a slot overwrites seq with freedSeq and
// recycling it installs a fresh one, so any Handle that recorded the
// old seq can detect that the slot moved on.
type event struct {
	seq      uint64
	fn       func()
	canceled bool
}

// freedSeq marks a pool slot that holds no event. Live events always
// have seq < freedSeq (nextSeq would need centuries to wrap).
const freedSeq = math.MaxUint64

// entry is a heap reference to a pooled event: the (at, seq) fire-
// order key inline (so sifting compares without chasing pool slots)
// plus the slot index to resolve at fire time.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// before is the fire order: (at, seq) ascending.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Handle allows a scheduled event to be canceled before it fires. A
// Handle is bound to its engine's goroutine: Cancel and Canceled must
// not be called concurrently with the engine running. Handles are
// generation-checked against the event pool (see the package comment),
// so holding one after its event fired is harmless.
type Handle struct {
	e   *Engine
	idx int32
	seq uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (h Handle) Cancel() {
	if h.e == nil {
		return
	}
	ev := &h.e.pool[h.idx]
	if ev.seq != h.seq || ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil // release whatever the closure retains now, not at drain
	h.e.live--
}

// Canceled reports whether Cancel was called on this handle before its
// event fired.
func (h Handle) Canceled() bool {
	if h.e == nil {
		return false
	}
	ev := &h.e.pool[h.idx]
	return ev.seq == h.seq && ev.canceled
}

// ErrEventInPast is returned by Engine.At when an event is scheduled
// before the current virtual time.
var ErrEventInPast = errors.New("sim: event scheduled in the past")

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
	live    int // scheduled, not yet fired, not canceled

	// Event pool: slots recycled through the free list.
	pool []event
	free []int32

	// heap is a 4-ary min-heap under entry.before: the children of
	// heap[i] are heap[4i+1 : 4i+5].
	heap []entry
}

// NewEngine returns an engine at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
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

// Pending returns the number of live events still queued: scheduled,
// not yet fired, and not canceled. Canceled events awaiting lazy
// removal from the queue are not counted.
func (e *Engine) Pending() int {
	return e.live
}

// At schedules fn to run at absolute time at. It returns a Handle that
// can cancel the event, and ErrEventInPast if at precedes Now.
func (e *Engine) At(at Time, fn func()) (Handle, error) {
	if at < e.now {
		return Handle{}, ErrEventInPast
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.pool = append(e.pool, event{})
		idx = int32(len(e.pool) - 1)
	}
	seq := e.nextSeq
	e.nextSeq++
	e.pool[idx] = event{seq: seq, fn: fn}
	e.live++
	e.push(entry{at: at, seq: seq, idx: idx})
	return Handle{e: e, idx: idx, seq: seq}, nil
}

// After schedules fn to run delay seconds from now. Negative delays are
// clamped to zero.
func (e *Engine) After(delay float64, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	h, _ := e.At(e.now+delay, fn) // cannot be in the past
	return h
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

// freeSlot returns a pool slot to the free list, dropping everything
// it retains.
func (e *Engine) freeSlot(idx int32) {
	e.pool[idx] = event{seq: freedSeq}
	e.free = append(e.free, idx)
}

// nextEntry returns the earliest live entry without consuming it,
// first popping canceled entries off the top and freeing their slots.
// ok is false when no live events remain. After it returns ok, the
// entry is the heap's top, which consume pops.
func (e *Engine) nextEntry() (entry, bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !e.pool[top.idx].canceled {
			return top, true
		}
		e.pop()
		e.freeSlot(top.idx)
	}
	return entry{}, false
}

// consume pops the entry nextEntry returned, frees its slot, advances
// the clock, and returns the callback to run.
func (e *Engine) consume(ent entry) func() {
	e.pop()
	fn := e.pool[ent.idx].fn
	e.freeSlot(ent.idx)
	e.live--
	e.now = ent.at
	e.fired++
	return fn
}

// Step fires the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	ent, ok := e.nextEntry()
	if !ok {
		return false
	}
	fn := e.consume(ent)
	fn()
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
// if it ran dry earlier. It returns the number of events fired.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var n uint64
	for {
		ent, ok := e.nextEntry()
		if !ok || ent.at > deadline {
			break
		}
		fn := e.consume(ent)
		fn()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// NextEventTime returns the time of the earliest pending event, or +Inf
// if the queue is empty.
func (e *Engine) NextEventTime() Time {
	if ent, ok := e.nextEntry(); ok {
		return ent.at
	}
	return math.Inf(1)
}
