// Package sim implements the discrete-event simulation engine that
// drives the GS³ network harness.
//
// Time is virtual, represented as a float64 number of abstract seconds.
// Events are ordered by time with a stable sequence-number tie-break so
// that runs are fully deterministic: two events scheduled for the same
// instant fire in scheduling order.
//
// # Queue structure
//
// The engine is a two-tier calendar queue tuned for this workload's
// shape: maintenance heartbeats and radio deliveries fire at a small
// set of regular deltas, so almost every event lands a short, bounded
// distance in the future. A near-future bucket wheel covers the window
// [wheelStart, wheelEnd) with fixed-width buckets; scheduling appends
// to the bucket its fire time falls in (O(1)), and a bucket is sorted
// by (At, seq) only when it becomes the current one being drained.
// Events beyond the wheel's horizon collect unsorted in an overflow
// tier; when the wheel runs dry the overflow is re-bucketed into a
// fresh wheel whose width adapts to the pending events' density (span
// × 1.25 / buckets), so the amortized cost per event stays O(1)
// regardless of how far ahead the workload schedules. If continuous
// scheduling grows the population past 8× the bucket count before the
// wheel drains, the wheel is evacuated and rebuilt at the new size
// (with a population-doubling guard between resizes), so buckets stay
// short under sustained load too.
//
// Fire order is exactly the total order (At, seq) — identical to the
// binary-heap engine this replaced, which `TestEngineMatchesHeapRef`
// pins operation-for-operation. Bucket boundaries cannot perturb it:
// the bucket index is monotone in At, buckets drain in index order, and
// each bucket is sorted by (At, seq) before it is drained, so the
// concatenation of drained buckets is the sorted order. Events
// scheduled into the current bucket mid-drain (e.g. zero-delay events)
// append and re-sort the bucket's remaining suffix, which is correct
// because At ≥ Now bounds them below by everything already fired.
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
// on an unrelated event.
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
	"slices"
)

// Time is a virtual-time instant in abstract seconds. It is a plain
// value; copies are independent.
type Time = float64

// event is one pooled slot of the engine's event store. A slot's
// identity is its seq: freeing a slot overwrites seq with freedSeq and
// recycling it installs a fresh one, so any Handle or queue entry that
// recorded the old seq can detect that the slot moved on.
type event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
}

// freedSeq marks a pool slot that holds no event. Live events always
// have seq < freedSeq (nextSeq would need centuries to wrap).
const freedSeq = math.MaxUint64

// entry is a queue reference to a pooled event: the (at, seq) fire-
// order key inline (so buckets sort without chasing pool slots) plus
// the slot index to resolve at fire time.
type entry struct {
	at  Time
	seq uint64
	idx int32
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

// Wheel sizing bounds. The bucket count tracks the pending-event count
// (about one event per bucket) between these clamps; the cap bounds
// per-engine memory, trading O(1) buckets for short sorted runs when
// millions of events are pending at once.
const (
	minBuckets = 64
	maxBuckets = 1 << 16
)

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

	// Near-future tier: fixed-width buckets covering
	// [wheelStart, wheelEnd). Only buckets[:nb] are in use; cur is the
	// lowest possibly-nonempty bucket, and buckets[cur] is kept sorted
	// descending by (at, seq) — drained from the tail — whenever
	// curSorted holds. wheelCount counts entries across buckets[cur:].
	buckets    [][]entry
	nb         int
	width      Time
	wheelStart Time
	wheelEnd   Time
	cur        int
	curSorted  bool
	wheelCount int

	// Far-future tier: unsorted; re-bucketed by rebuild when the wheel
	// runs dry. scratch is the spare slice rebuild compacts into.
	overflow []entry
	scratch  []entry

	// lastRebuildN is the wheel population right after the last
	// rebuild: the doubling baseline for load-factor resizes (see
	// insert), which keeps a same-timestamp pileup — which no bucket
	// width can split — from re-triggering a rebuild on every insert.
	lastRebuildN int
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
	e.pool[idx] = event{at: at, seq: seq, fn: fn}
	e.live++
	e.insert(entry{at: at, seq: seq, idx: idx})
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

// insert files an entry into the tier its fire time selects: the
// bucket wheel when at < wheelEnd, the overflow otherwise. The bucket
// index is monotone in at (clamped floor of a positive-width division),
// which is all the fire order needs from it. An insert landing in the
// already-sorted current bucket splices into sorted position instead
// of forcing a re-sort; and when the wheel population outgrows the
// bucket count (load factor > 8 with room to grow, population doubled
// since the last rebuild) the wheel is evacuated and resized, so a
// long-lived wheel under continuous scheduling cannot accumulate
// pathologically large buckets.
func (e *Engine) insert(ent entry) {
	if e.nb == 0 || !(ent.at < e.wheelEnd) {
		e.overflow = append(e.overflow, ent)
		return
	}
	b := int((ent.at - e.wheelStart) / e.width)
	if b < 0 {
		b = 0
	}
	if b >= e.nb {
		b = e.nb - 1
	}
	switch {
	case b < e.cur:
		// Re-opening an already-drained (hence empty) earlier bucket.
		e.cur = b
		e.buckets[b] = append(e.buckets[b], ent)
		e.curSorted = len(e.buckets[b]) == 1
	case b == e.cur && e.curSorted:
		// Mid-drain insert into the current bucket: splice into sorted
		// position (descending, so lower (at, seq) sits nearer the
		// tail). Correct because at ≥ now bounds the entry below by
		// everything already fired.
		bk := e.buckets[b]
		lo, hi := 0, len(bk)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if entryAfter(bk[mid], ent) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bk = append(bk, entry{})
		copy(bk[lo+1:], bk[lo:])
		bk[lo] = ent
		e.buckets[b] = bk
	default:
		// A future bucket (sorted lazily when it becomes current), or
		// the current bucket while it is still awaiting its sort.
		e.buckets[b] = append(e.buckets[b], ent)
	}
	e.wheelCount++
	if e.wheelCount > 8*e.nb && e.nb < maxBuckets && e.wheelCount >= 2*e.lastRebuildN {
		e.evacuate()
	}
}

// evacuate dumps every wheel entry back into the overflow tier and
// rebuilds, resizing the wheel to the current population. Triggered by
// insert's load-factor check; O(pending), amortized O(1) per insert by
// the doubling guard.
func (e *Engine) evacuate() {
	for i := e.cur; i < e.nb; i++ {
		if len(e.buckets[i]) > 0 {
			e.overflow = append(e.overflow, e.buckets[i]...)
			e.buckets[i] = e.buckets[i][:0]
		}
	}
	e.wheelCount = 0
	e.rebuild()
}

// freeSlot returns a pool slot to the free list, dropping everything
// it retains.
func (e *Engine) freeSlot(idx int32) {
	e.pool[idx] = event{seq: freedSeq}
	e.free = append(e.free, idx)
}

// entryAfter sorts entries descending by (at, seq), so the next event
// to fire sits at a bucket's tail and popping it is O(1).
func entryAfter(a, b entry) int {
	switch {
	case a.at > b.at:
		return -1
	case a.at < b.at:
		return 1
	case a.seq > b.seq:
		return -1
	case a.seq < b.seq:
		return 1
	}
	return 0
}

// nextEntry readies and returns the earliest live entry without
// consuming it: it advances past drained buckets, rebuilds the wheel
// from the overflow when the wheel runs dry, sorts the current bucket
// if needed, and discards canceled events (freeing their slots) from
// the bucket tail. ok is false when no live events remain. After it
// returns ok, the entry sits at the tail of buckets[cur] and consume
// pops it in O(1) — the single-scan structure RunUntil and Step share.
func (e *Engine) nextEntry() (entry, bool) {
	for {
		for e.wheelCount > 0 && e.cur < e.nb && len(e.buckets[e.cur]) == 0 {
			e.cur++
			e.curSorted = false
		}
		if e.wheelCount == 0 {
			if len(e.overflow) == 0 {
				return entry{}, false
			}
			e.rebuild()
			continue
		}
		b := e.buckets[e.cur]
		if !e.curSorted {
			slices.SortFunc(b, entryAfter)
			e.curSorted = true
		}
		for len(b) > 0 {
			ent := b[len(b)-1]
			if !e.pool[ent.idx].canceled {
				e.buckets[e.cur] = b
				return ent, true
			}
			e.freeSlot(ent.idx)
			b = b[:len(b)-1]
			e.wheelCount--
		}
		e.buckets[e.cur] = b
	}
}

// consume pops the entry nextEntry returned, frees its slot, advances
// the clock, and returns the callback to run.
func (e *Engine) consume(ent entry) func() {
	n := len(e.buckets[e.cur]) - 1
	e.buckets[e.cur] = e.buckets[e.cur][:n]
	e.wheelCount--
	fn := e.pool[ent.idx].fn
	e.freeSlot(ent.idx)
	e.live--
	e.now = ent.at
	e.fired++
	return fn
}

// rebuild re-buckets the overflow tier into a fresh wheel anchored at
// the earliest pending fire time. The bucket count tracks the pending
// count (clamped to [minBuckets, maxBuckets]) and the width spreads
// 1.25× the pending span across it, so the new wheel holds everything
// in the common case; events still beyond the new horizon stay in the
// overflow for a later rebuild. Canceled events are dropped here
// rather than carried. The earliest event always enters the wheel, so
// every rebuild makes progress.
func (e *Engine) rebuild() {
	old := e.overflow
	minAt, maxAt := math.Inf(1), math.Inf(-1)
	n := 0
	for _, ent := range old {
		ev := &e.pool[ent.idx]
		if ev.seq != ent.seq {
			continue
		}
		if ev.canceled {
			e.freeSlot(ent.idx)
			continue
		}
		n++
		if ent.at < minAt {
			minAt = ent.at
		}
		if ent.at > maxAt {
			maxAt = ent.at
		}
	}
	if n == 0 {
		e.overflow = old[:0]
		return
	}
	nb := minBuckets
	for nb < n && nb < maxBuckets {
		nb *= 2
	}
	width := 1.25 * (maxAt - minAt) / float64(nb)
	if !(width > 0 && width < math.Inf(1)) {
		width = 1 // zero span (or degenerate times): one hot bucket
	}
	for len(e.buckets) < nb {
		e.buckets = append(e.buckets, nil)
	}
	e.nb = nb
	e.width = width
	e.wheelStart = minAt
	e.wheelEnd = minAt + width*float64(nb)
	e.cur = 0
	e.curSorted = false
	e.wheelCount = 0
	keep := e.scratch[:0]
	for _, ent := range old {
		if e.pool[ent.idx].seq != ent.seq {
			continue // canceled and freed above
		}
		if !(ent.at < e.wheelEnd) && ent.at > minAt {
			keep = append(keep, ent)
			continue
		}
		b := int((ent.at - e.wheelStart) / e.width)
		if b < 0 {
			b = 0
		}
		if b >= nb {
			b = nb - 1
		}
		e.buckets[b] = append(e.buckets[b], ent)
		e.wheelCount++
	}
	e.scratch = old[:0]
	e.overflow = keep
	e.lastRebuildN = e.wheelCount
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
//
// The loop is a single pop path: nextEntry leaves the upcoming event
// parked at the current bucket's tail, so checking it against the
// deadline and consuming it shares one scan — the binary-heap engine
// paid a second O(log n) pop (peek, then Step) per fired event here.
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

// RunWhile fires events while cond() holds, checking after every event,
// with a hard cap on events to guard against livelock. It returns the
// number of events fired and whether cond became false (true) or the
// cap/empty queue stopped the run (false).
func (e *Engine) RunWhile(cond func() bool, maxEvents uint64) (uint64, bool) {
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

// NextEventTime returns the time of the earliest pending event, or +Inf
// if the queue is empty.
func (e *Engine) NextEventTime() Time {
	if ent, ok := e.nextEntry(); ok {
		return ent.at
	}
	return math.Inf(1)
}
