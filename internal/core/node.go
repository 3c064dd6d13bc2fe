package core

import (
	"gs3/internal/geom"
	"gs3/internal/hexlat"
	"gs3/internal/radio"
)

// Status is a node's protocol status (paper Figures 2, 6, 9).
type Status uint8

// Node statuses. Head and Work are both "head roles": Head means
// selected but HEAD_ORG not yet executed; Work means organizing is done.
const (
	StatusBootup Status = iota + 1
	StatusHead
	StatusWork
	StatusAssociate
	StatusBigSlide // big node ceded headship during a cell slide
	StatusBigMove  // big node moving, represented by a proxy
	StatusDead
)

var statusNames = map[Status]string{
	StatusBootup:    "bootup",
	StatusHead:      "head",
	StatusWork:      "work",
	StatusAssociate: "associate",
	StatusBigSlide:  "big_slide",
	StatusBigMove:   "big_move",
	StatusDead:      "dead",
}

// String returns the paper's name for the status.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return "invalid"
}

// IsHeadRole reports whether the status carries the head role.
func (s Status) IsHeadRole() bool {
	return s == StatusHead || s == StatusWork
}

// Node is the per-node protocol state the configure and sweep paths
// read on every action — the hot half of the store. GS³'s scalability
// claim is that this state references only a constant number of other
// nodes: one head for associates, and parent + ≤6 neighbors + ≤5
// children for heads.
//
// Nodes live inline in the network's dense slice (see store.go), not
// behind individual heap pointers: a *Node is a pointer into that
// slice, invalidated by the next AddNode/Join. Cold per-node state —
// energy, mobility proxy, the sweep counter and cache — lives in
// parallel arrays keyed by the same dense ID (nodeCold, sweepRecord).
// A settled sweep reads no Node at all: liveness and the head role
// come from the medium, bigness from the ID (sweepOnce).
type Node struct {
	ID    radio.NodeID
	IsBig bool

	Status Status
	// Candidate is associate-role state (within Rt of its cell's current
	// IL), kept beside Status, where it packs into padding.
	Candidate bool

	// Head-role state.
	IL        geom.Point         // current ideal location of the cell
	OIL       geom.Point         // original ideal location
	Spiral    hexlat.SpiralIndex // ⟨ICC, ICP⟩ of IL relative to OIL
	Parent    radio.NodeID
	ParentIL  geom.Point // IL of the parent's cell: the reference direction source
	Children  []radio.NodeID
	Neighbors []radio.NodeID // neighboring cell heads
	Hops      int32          // hop distance to the big node in the head graph

	// Associate-role state.
	Head radio.NodeID
	// Candidates replicate the cell state they hear in heartbeats, so
	// the cell survives its head's death (head shift).
	CellIL     geom.Point
	CellOIL    geom.Point
	CellSpiral hexlat.SpiralIndex

	// chose is the medium's associate-view epoch + 1 right after the
	// node's last ASSOCIATE_ORG_RESP choice in a HEAD_ORG or rescan, 0
	// before the first: while the epoch stays there, nothing that choice
	// reads has changed, and associateOrgResp skips the node.
	chose uint64
}

// sweepDelta is the externally observable accounting of one recorded
// no-op sweep: the radio and protocol counter increments the sweep
// produced. A sweep elided by the fast path replays the delta so every
// printed statistic matches a run that did the work. Deltas are
// interned network-wide (deltaTable), because a settled field produces
// only a few dozen distinct ones; each node's sweep record holds table
// indices, not deltas.
type sweepDelta struct {
	stats   radio.Stats
	metrics Metrics
}

// deltaTable interns a network's distinct sweep deltas and counts the
// replays of each that are not yet credited to the live counters.
// Index 0 is reserved: a flavor holding it has nothing recorded.
// A replay only bumps its index's count; Network.creditReplays adds
// count × delta once per index, so a settled batch of thousands of
// replays costs a few dozen counter additions.
type deltaTable struct {
	deltas []sweepDelta // by index; deltas[0] is the unused sentinel
	counts []uint32     // uncredited replays per index
	due    []uint32     // indices whose count is non-zero
	index  map[sweepDelta]uint32
}

// intern returns the (non-zero) index of d, adding it to the table if
// new.
func (t *deltaTable) intern(d sweepDelta) uint32 {
	if i, ok := t.index[d]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[sweepDelta]uint32)
		t.deltas = append(t.deltas, sweepDelta{})
		t.counts = append(t.counts, 0)
	}
	i := uint32(len(t.deltas))
	t.deltas = append(t.deltas, d)
	t.counts = append(t.counts, 0)
	t.index[d] = i
	return i
}

// replay counts one elided sweep against delta i.
func (t *deltaTable) replay(i uint32) {
	if t.counts[i] == 0 {
		t.due = append(t.due, i)
	}
	t.counts[i]++
}

// sweepRecord is everything a settled sweep reads of its node: the
// sweep counter and the node's recorded quiescent sweeps, as deltaTable
// indices. Two flavors exist because a head's periodic boundary rescan
// produces a different (but equally state-preserving) counter delta
// than a plain heartbeat sweep. The stamps tie both flavors to the
// topology epoch of the node's query cone at record time: worldStamp is
// the global epoch (an O(1) "nothing anywhere changed" test),
// regionStamp the cone maximum (the precise test when the world moved
// elsewhere).
type sweepRecord struct {
	worldStamp  uint64
	regionStamp uint64
	plain       uint32
	rescan      uint32
	// sweep counts maintenance rounds, for the periodic sub-actions
	// (SANITY_CHECK, boundary rescan).
	sweep uint32
	// sane records whether the head's state passed the sanity-check
	// predicate at record time; only a sane head may skip its periodic
	// SANITY_CHECK sweeps (an insane one might need to retreat).
	sane bool
}

func removeID(ids []radio.NodeID, id radio.NodeID) []radio.NodeID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

func containsID(ids []radio.NodeID, id radio.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
