// Package trace records structured protocol events — head selections,
// shifts, abandonments, sanity retreats, proxy changes — so runs can be
// audited and debugged without string-grepping logs. The event engine
// is single-threaded, so the log needs no locking.
package trace

import (
	"fmt"
	"strings"

	"gs3/internal/geom"
	"gs3/internal/radio"
)

// Kind classifies a protocol event.
type Kind int

// Event kinds, one per externally meaningful protocol transition.
const (
	KindHeadSelected  Kind = iota + 1 // HEAD_SELECT promoted a node
	KindHeadOrg                       // a head ran HEAD_ORG / rescan
	KindHeadShift                     // head role handed to a candidate
	KindCellShift                     // STRENGTHEN_CELL advanced the IL
	KindAbandon                       // cell abandoned
	KindSanityRetreat                 // head retreated as corrupt
	KindPromotion                     // candidates elected a new head
	KindJoin                          // node joined the network
	KindDeath                         // node died / was killed
	KindParentChange                  // head switched parents
	KindProxyChange                   // big node adopted a proxy
	KindBigReclaim                    // big node reclaimed headship
)

var kindNames = map[Kind]string{
	KindHeadSelected:  "head_selected",
	KindHeadOrg:       "head_org",
	KindHeadShift:     "head_shift",
	KindCellShift:     "cell_shift",
	KindAbandon:       "cell_abandoned",
	KindSanityRetreat: "sanity_retreat",
	KindPromotion:     "candidate_promotion",
	KindJoin:          "join",
	KindDeath:         "death",
	KindParentChange:  "parent_change",
	KindProxyChange:   "proxy_change",
	KindBigReclaim:    "big_reclaim",
}

// String returns the event kind's wire name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "invalid"
}

// Event is one recorded protocol transition.
type Event struct {
	Time  float64
	Kind  Kind
	Node  radio.NodeID // primary subject
	Other radio.NodeID // counterpart (new head, parent, proxy, …)
	Pos   geom.Point   // location the event concerns (IL or position)
}

// String renders the event as one log line.
func (e Event) String() string {
	if e.Other != radio.None {
		return fmt.Sprintf("t=%.3f %s node=%d other=%d at=(%.1f,%.1f)",
			e.Time, e.Kind, e.Node, e.Other, e.Pos.X, e.Pos.Y)
	}
	return fmt.Sprintf("t=%.3f %s node=%d at=(%.1f,%.1f)",
		e.Time, e.Kind, e.Node, e.Pos.X, e.Pos.Y)
}

// Log is a bounded in-memory event log. When full it drops the oldest
// events (ring behaviour) and counts the drops.
type Log struct {
	events  []Event
	start   int
	count   int
	dropped int
}

// NewLog returns a log holding at most capacity events. It panics on a
// non-positive capacity (a programmer error).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Log{events: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full.
func (l *Log) Record(e Event) {
	if l.count == len(l.events) {
		l.events[l.start] = e
		l.start = (l.start + 1) % len(l.events)
		l.dropped++
		return
	}
	l.events[(l.start+l.count)%len(l.events)] = e
	l.count++
}

// Len returns the number of retained events.
func (l *Log) Len() int { return l.count }

// Dropped returns how many events were evicted.
func (l *Log) Dropped() int { return l.dropped }

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	out := make([]Event, l.count)
	for i := 0; i < l.count; i++ {
		out[i] = l.events[(l.start+i)%len(l.events)]
	}
	return out
}

// Counts returns a histogram of retained events by kind.
func (l *Log) Counts() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range l.Events() {
		out[e.Kind]++
	}
	return out
}

// Dump renders the whole log, one event per line.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if l.dropped > 0 {
		fmt.Fprintf(&b, "(%d older events dropped)\n", l.dropped)
	}
	return b.String()
}
