package core

import (
	"cmp"
	"math"
	"slices"

	"gs3/internal/geom"
	"gs3/internal/hexlat"
	"gs3/internal/radio"
)

// NodeView is an immutable copy of one node's protocol state, taken for
// invariant checking, metrics, and rendering.
type NodeView struct {
	ID        radio.NodeID
	Pos       geom.Point
	IsBig     bool
	Status    Status
	IL        geom.Point
	OIL       geom.Point
	Spiral    hexlat.SpiralIndex
	Parent    radio.NodeID
	Children  []radio.NodeID
	Neighbors []radio.NodeID
	Hops      int
	Head      radio.NodeID
	Candidate bool
	Proxy     radio.NodeID
	Energy    float64
	// Blackout marks a node transiently down (fault layer): its state
	// is intact but it neither transmits nor hears until it restores.
	// Always false without an active fault injector.
	Blackout bool
}

// IsHead reports whether the node holds the head role in this view.
func (v NodeView) IsHead() bool {
	return v.Status.IsHeadRole()
}

// Snapshot is a consistent copy of the whole network state.
type Snapshot struct {
	Config Config
	Time   float64
	BigID  radio.NodeID
	// Obstacles are the medium's occluding polygons at snapshot time
	// (shared read-only with the medium, which copies on install; nil in
	// free space). The invariant checker consults them so clauses about
	// what a node can hear respect the links occlusion kills.
	Obstacles []geom.Polygon
	// Nodes holds the views in strictly ascending ID order with dead
	// nodes excluded. The ordering is load-bearing: View binary-searches
	// it, and the invariant checker's indexes rely on it for
	// deterministic iteration. Network.Snapshot builds it from
	// SortedIDs, which guarantees the order.
	Nodes []NodeView
}

// Snapshot captures the current network state. Dead nodes are omitted:
// they have left the system model.
//
// All per-view Children/Neighbors clones are carved from one backing
// array sized by a counting pre-pass, so a snapshot costs three
// allocations regardless of node count. Empty lists stay nil, matching
// what a per-view clone would produce.
func (nw *Network) Snapshot() Snapshot {
	s := Snapshot{Config: nw.cfg, Time: nw.eng.Now(), BigID: nw.bigID, Obstacles: nw.med.Obstacles()}
	ids := nw.SortedIDs()
	alive, links := 0, 0
	for _, id := range ids {
		n := nw.node(id)
		if n == nil || n.Status == StatusDead {
			continue
		}
		alive++
		links += len(n.Children) + len(n.Neighbors)
	}
	s.Nodes = make([]NodeView, 0, alive)
	backing := make([]radio.NodeID, 0, links)
	clone := func(src []radio.NodeID) []radio.NodeID {
		if len(src) == 0 {
			return nil
		}
		start := len(backing)
		backing = append(backing, src...)
		return backing[start:len(backing):len(backing)]
	}
	for _, id := range ids {
		n := nw.node(id)
		if n == nil || n.Status == StatusDead {
			continue
		}
		s.Nodes = append(s.Nodes, NodeView{
			ID:        id,
			Pos:       nw.Position(id),
			IsBig:     n.IsBig,
			Status:    n.Status,
			IL:        n.IL,
			OIL:       n.OIL,
			Spiral:    n.Spiral,
			Parent:    n.Parent,
			Children:  clone(n.Children),
			Neighbors: clone(n.Neighbors),
			Hops:      int(n.Hops),
			Head:      n.Head,
			Candidate: n.Candidate,
			Proxy:     nw.coldOf(id).Proxy,
			Energy:    nw.coldOf(id).Energy,
			Blackout:  nw.med.InBlackout(id),
		})
	}
	return s
}

// Root returns the head the snapshot's parent tree drains to, by the
// rule Network.RootHead applies to the live network (see rootOf), or
// radio.None when the big node is absent.
func (s Snapshot) Root() radio.NodeID {
	big, ok := s.View(s.BigID)
	if !ok {
		return radio.None
	}
	return rootOf(big.ID, big.Status, big.Head, big.Proxy)
}

// Heads returns the views of all head-role nodes.
func (s Snapshot) Heads() []NodeView {
	var out []NodeView
	for _, v := range s.Nodes {
		if v.IsHead() {
			out = append(out, v)
		}
	}
	return out
}

// View returns the view of node id, or (zero, false). It binary-searches
// Nodes, which is ascending by ID by construction.
func (s Snapshot) View(id radio.NodeID) (NodeView, bool) {
	i, ok := slices.BinarySearchFunc(s.Nodes, id, func(v NodeView, id radio.NodeID) int {
		return cmp.Compare(v.ID, id)
	})
	if !ok {
		return NodeView{}, false
	}
	return s.Nodes[i], true
}

// Members returns the IDs of the associates of head id in this
// snapshot.
func (s Snapshot) Members(id radio.NodeID) []radio.NodeID {
	var out []radio.NodeID
	for _, v := range s.Nodes {
		if v.Status == StatusAssociate && v.Head == id {
			out = append(out, v.ID)
		}
	}
	return out
}

// CorruptionKind selects a state-corruption perturbation.
type CorruptionKind int

// Kinds of state corruption the harness can inject (paper: "node state
// corruptions" are arbitrary; these cover the protocol-relevant state).
const (
	CorruptIL CorruptionKind = iota + 1
	CorruptHops
	CorruptStatus
)

// Corrupt injects a state corruption at node id: displace its IL, smash
// its hop count, or flip an associate into a bogus head. delta scales
// the damage (for CorruptIL it is the displacement distance; for
// CorruptHops the new hop count, saturated into [0, unknownHops] and
// truncated, with NaN leaving the count alone). Healing is left to
// sanity checking and the maintenance sweeps.
func (nw *Network) Corrupt(id radio.NodeID, kind CorruptionKind, delta float64) {
	n := nw.node(id)
	if n == nil || n.Status == StatusDead {
		return
	}
	// Corruption is a topology-visible state change like any other.
	nw.touch(id)
	switch kind {
	case CorruptIL:
		if n.Status.IsHeadRole() {
			n.IL = n.IL.Add(geom.UnitAt(float64(id)).Scale(delta))
		}
	case CorruptHops:
		if n.Status.IsHeadRole() && !math.IsNaN(delta) {
			nw.setParent(n, n.Parent, n.ParentIL, int32(min(max(delta, 0), unknownHops)))
		}
	case CorruptStatus:
		if n.Status == StatusAssociate {
			// The node wrongly believes it is a head of a cell at its
			// own position — a classic arbitrary-state start.
			nw.setStatus(n, StatusWork)
			n.IL = nw.Position(id)
			n.OIL = n.IL
			n.Spiral = hexlat.SpiralIndex{}
			nw.setParent(n, radio.None, n.ParentIL, unknownHops)
		}
	}
}
