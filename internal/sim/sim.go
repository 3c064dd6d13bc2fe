// Package sim implements the discrete-event simulation engine that
// drives the GS³ network harness.
//
// Time is virtual, represented as a float64 number of abstract seconds.
// Events fire in time order, and two events scheduled for the same
// instant fire in scheduling order, so runs are fully deterministic:
// the fire order is the strict total order (At, seq), where seq counts
// the events scheduled before this one.
//
// # Queue
//
// The queue is a binary radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
// "Faster algorithms for the shortest path problem", JACM 1990). No
// event time is negative, since At rejects a time before Now and Now
// starts at zero, and the IEEE 754 bits of two non-negative float64
// values, read as integers, order as the values do. An event's key is
// therefore the bits of its time, with −0, the one time whose sign bit
// is set, filed as +0, which it equals.
//
// The engine keeps last, the key of the last event it readied to fire,
// and 64 buckets: bucket 0 holds the events at last, and bucket b ≥ 1
// the events whose key's highest bit that differs from last is bit
// b−1. No key has its sign bit set, so none differs from last in bit
// 63. No pending key is below last, so the lowest non-empty bucket
// holds the earliest events, and a bit mask of the non-empty buckets
// finds it. Scheduling appends the event to its bucket. Bucket
// 0 is read from a head index; once it is drained, the next Step or
// RunUntil refills it from the lowest non-empty bucket b: last moves to
// that bucket's minimum, and its events are redistributed, in order,
// into the buckets below b, the minimum's into bucket 0.
//
// Every bucket lists its events in scheduling order. A push appends the
// newest event, and a refill splits one bucket, in order, into buckets
// that are all empty: the buckets below the lowest non-empty one. So
// bucket 0, whose events share one time, fires first in, first out,
// which is (At, seq) order with no seq stored.
//
// A refill happens only when the bucket's minimum is due by the
// deadline of the Step or RunUntil that asks for it, so last moves only
// to an event about to fire, and Now reaches it. At rejects a time
// before Now, so no event scheduled later lands below last.
// NextEventTime reads the minimum without moving anything.
//
// A bucket's slice grows the first time the bucket holds that many
// events and keeps its capacity after. Which bucket an event lands in
// depends on which bits of its time differ from last, so the buckets
// see new occupancies, and may grow again, when virtual time enters a
// new power of two. Between those crossings a steady schedule+fire
// cycle allocates nothing.
//
// # Kinds
//
// An event is a kind and an int32 payload. Each owner registers its
// kinds once, with one handler each (Register), and schedules events
// of a kind with a payload that tells the handler what the event is
// about: a node ID, a packet index, a batch index. The bucket entry
// {at, payload, kind} is the whole event. Firing one calls the kind's
// handler with the payload and reads nothing else.
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
	"math/bits"
)

// Time is a virtual-time instant in abstract seconds. It is a plain
// value; copies are independent.
type Time = float64

// Kind names a family of events that share one handler. Register hands
// kinds out; they are only meaningful on the engine that issued them.
type Kind int32

// entry is one scheduled event, 16 bytes: its time and the kind and
// payload its firing dispatches. Its place in its bucket is its place
// in the fire order among events at the same time.
type entry struct {
	at      Time
	payload int32
	kind    Kind
}

// key is the radix key of a non-negative time: its IEEE 754 bits, with
// the sign bit, set only by −0, cleared.
func key(at Time) uint64 {
	return math.Float64bits(at) &^ (1 << 63)
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
	now       Time
	scheduled uint64
	fired     uint64

	// handlers maps each registered Kind to its handler.
	handlers []func(payload int32)

	// last is the key of the last event readied to fire. buckets[0]
	// holds the events at last, unfired from head on, and buckets[b]
	// for b ≥ 1 the events whose key's highest bit that differs from
	// last is bit b−1. Bit b of mask is set when buckets[b] is
	// non-empty; bit 0 may stay set after bucket 0 drains, until the
	// next refill clears it.
	last    uint64
	head    int
	mask    uint64
	buckets [64][]entry
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

// Scheduled returns the number of events ever scheduled. Two equal
// readings prove no event was scheduled in between — the primitive
// batching callers use to detect that another event's ordering
// position falls between two of their additions.
func (e *Engine) Scheduled() uint64 {
	return e.scheduled
}

// Pending returns the number of events still queued: scheduled and not
// yet fired. Every scheduled event fires, so that is the difference.
func (e *Engine) Pending() int {
	return int(e.scheduled - e.fired)
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
	b := bits.Len64(key(at) ^ e.last)
	e.buckets[b] = append(e.buckets[b], entry{at: at, payload: payload, kind: k})
	e.mask |= 1 << b
	e.scheduled++
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

// ready reports whether the earliest pending event is due by deadline,
// and if so leaves it at the head of bucket 0.
func (e *Engine) ready(deadline Time) bool {
	if e.head < len(e.buckets[0]) {
		return e.buckets[0][e.head].at <= deadline
	}
	return e.refill(deadline)
}

// refill, with bucket 0 drained, finds the lowest non-empty bucket and,
// if its minimum is due by deadline, moves last to that minimum and
// splits the bucket, in order, into the empty buckets below it. It
// reports whether it did.
func (e *Engine) refill(deadline Time) bool {
	e.buckets[0], e.head = e.buckets[0][:0], 0
	e.mask &^= 1
	if e.mask == 0 {
		return false
	}
	b := bits.TrailingZeros64(e.mask)
	src := e.buckets[b]
	first, k := earliest(src)
	if !(first <= deadline) {
		return false
	}
	e.last = k
	for _, ent := range src {
		nb := bits.Len64(key(ent.at) ^ k)
		e.buckets[nb] = append(e.buckets[nb], ent)
		e.mask |= 1 << nb
	}
	e.buckets[b] = src[:0]
	e.mask &^= 1 << b
	return true
}

// earliest returns the earliest time in a non-empty bucket, the first
// of those with the least key, and that key.
func earliest(src []entry) (Time, uint64) {
	first, k := src[0].at, key(src[0].at)
	for _, ent := range src[1:] {
		if ek := key(ent.at); ek < k {
			first, k = ent.at, ek
		}
	}
	return first, k
}

// fire takes the head of bucket 0, advances the clock to it, and calls
// its kind's handler.
func (e *Engine) fire() {
	ent := e.buckets[0][e.head]
	e.head++
	e.now = ent.at
	e.fired++
	e.handlers[ent.kind](ent.payload)
}

// Step fires the next event. It returns false when no event is queued.
func (e *Engine) Step() bool {
	if !e.ready(math.Inf(1)) {
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
	for e.ready(deadline) {
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
	if e.head < len(e.buckets[0]) {
		return e.buckets[0][e.head].at
	}
	above := e.mask &^ 1
	if above == 0 {
		return math.Inf(1)
	}
	first, _ := earliest(e.buckets[bits.TrailingZeros64(above)])
	return first
}
