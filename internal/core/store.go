package core

import "gs3/internal/radio"

// This file is the struct-of-arrays node store. Node IDs are dense
// small integers allocated sequentially from 0, so per-node state lives
// in parallel ID-indexed slices instead of a map of heap pointers:
//
//   - nodes []Node       — the hot protocol state (node.go), inline;
//   - cold  []nodeCold   — fields no configure/sweep inner loop reads;
//   - caches []sweepCache — the quiescent-sweep caches, allocated lazily
//     on the first maintenance sweep so configure-only runs (the
//     million-node scaling experiments) never pay for them.
//
// The layout makes a cold configure cache-friendly (sequential sweeps
// walk contiguous memory) and collapses per-node allocation to a
// handful of slab growths. The cost is a pointer-stability contract:
// a *Node points into the slice and is invalidated by AddNode/Join.
// No protocol path holds a *Node across an AddNode — joins happen
// between engine events — and external callers get snapshots.
//
// Field widths are audited against their actual ranges, because at
// million-node scale every byte here is a megabyte: radio.NodeID is
// int32 (dense IDs), Status is uint8, Node.Hops and the SpiralIndex
// ranks are int32 (unknownHops = 1<<20 is the ceiling), nodeCold.sweep
// is uint32, and a sweepCache is 32 bytes: two uint32 indices into the
// network's interned table of sweep deltas, whose counter increments
// are packed as uint16 (node.go). Snapshot/JSON view types keep wide
// ints, so none of this narrows the wire form. The other per-node line
// item — the engine's event bookkeeping — is pooled slots plus 24-byte
// queue entries in internal/sim.
//
// Link slices (Children/Neighbors) come from a chunk arena: fixed
// eight-entry chunks carved out of slabs and recycled through a free
// list when a node leaves the head role. Eight covers the paper's
// bounds (≤5 children, ≤6 neighbors) with slack; a transiently larger
// list silently escapes to the ordinary heap and is simply not
// recycled.

// nodeCold is the cold half of a node's state: fields that exist for
// every node but are read only by low-frequency paths (mobility,
// energy accounting, sweep scheduling), kept out of the hot Node
// struct so configure and sweep loops don't drag them through cache.
type nodeCold struct {
	// Proxy is the big-node mobility state (GS³-M): the head acting
	// for the big node while it moves.
	Proxy radio.NodeID
	// Energy is the node's remaining energy (the lifetime model).
	Energy float64
	// sweep counts maintenance rounds, for low-frequency sub-actions.
	sweep uint32
	// pendingChildRepair delays parent-side repair of a lost child by
	// one heartbeat, giving the cell's own head shift priority.
	pendingChildRepair bool
}

// linkCap is the arena chunk capacity for Children/Neighbors lists.
const linkCap = 8

// arenaSlabChunks is how many chunks each slab carves.
const arenaSlabChunks = 256

// idArena hands out fixed-capacity []radio.NodeID chunks carved from
// slabs, with a free list for recycling. A chunk is always created with
// the three-index slice expression, so cap == linkCap identifies
// recyclable chunks; anything append grew past linkCap has a different
// capacity and is left to the garbage collector.
type idArena struct {
	slab []radio.NodeID   // current slab; len marks the carve position
	free [][]radio.NodeID // recycled chunks (len 0, cap linkCap)
}

// get returns an empty chunk with capacity linkCap.
func (a *idArena) get() []radio.NodeID {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	if len(a.slab)+linkCap > cap(a.slab) {
		a.slab = make([]radio.NodeID, 0, linkCap*arenaSlabChunks)
	}
	n := len(a.slab)
	a.slab = a.slab[:n+linkCap]
	return a.slab[n : n : n+linkCap]
}

// put recycles a chunk the caller exclusively owns. Non-chunks (nil,
// heap-grown slices) are ignored.
func (a *idArena) put(s []radio.NodeID) {
	if cap(s) == linkCap {
		a.free = append(a.free, s[:0])
	}
}

// node returns a pointer to the node with the given ID, or nil if no
// such node was ever added. The pointer is into the dense store: valid
// until the next AddNode/Join.
func (nw *Network) node(id radio.NodeID) *Node {
	if id < 0 || int(id) >= len(nw.nodes) {
		return nil
	}
	return &nw.nodes[id]
}

// coldOf returns the cold-state record for an existing node ID.
func (nw *Network) coldOf(id radio.NodeID) *nodeCold {
	return &nw.cold[id]
}

// cacheFor returns the node's quiescent-sweep cache, growing the cache
// array to cover every node on first use (configure-only runs never
// call this).
func (nw *Network) cacheFor(id radio.NodeID) *sweepCache {
	for len(nw.caches) < len(nw.nodes) {
		nw.caches = append(nw.caches, sweepCache{})
	}
	return &nw.caches[id]
}

// Reserve pre-sizes the store (and the medium's per-node state) for n
// nodes, so bulk deployment grows nothing. Purely an optimization.
func (nw *Network) Reserve(n int) {
	if n > cap(nw.nodes) {
		nw.nodes = append(make([]Node, 0, n), nw.nodes...)
		nw.cold = append(make([]nodeCold, 0, n), nw.cold...)
	}
	nw.med.Reserve(n)
}

// setStatus is the one place a node's status changes (outside Kill,
// whose medium removal clears the head index itself): it keeps the
// medium's head-role index exactly in sync with Status.IsHeadRole, the
// invariant headRoleAt and reachableHeadsAt depend on.
func (nw *Network) setStatus(n *Node, s Status) {
	if n.Status == s {
		return
	}
	was := n.Status.IsHeadRole()
	n.Status = s
	if is := s.IsHeadRole(); is != was {
		nw.med.SetHeadRole(n.ID, is)
	}
}

// appendID appends id to a link list, drawing a fresh arena chunk for
// nil lists.
func (nw *Network) appendID(s []radio.NodeID, id radio.NodeID) []radio.NodeID {
	if s == nil {
		s = nw.arena.get()
	}
	return append(s, id)
}

// addUniqueID appends id to a link list if absent.
func (nw *Network) addUniqueID(s []radio.NodeID, id radio.NodeID) []radio.NodeID {
	if containsID(s, id) {
		return s
	}
	return nw.appendID(s, id)
}

// cloneIDs copies a link list into a fresh arena chunk (nil for empty).
func (nw *Network) cloneIDs(s []radio.NodeID) []radio.NodeID {
	if len(s) == 0 {
		return nil
	}
	return append(nw.arena.get(), s...)
}

// resetHeadState clears head-role fields when a node leaves the head
// role, recycling its link chunks.
func (nw *Network) resetHeadState(n *Node) {
	nw.arena.put(n.Children)
	nw.arena.put(n.Neighbors)
	n.Children = nil
	n.Neighbors = nil
	n.Parent = radio.None
	n.Hops = 0
}

// becomeAssociate transitions the node to associate of head h.
func (nw *Network) becomeAssociate(n *Node, h radio.NodeID) {
	nw.setStatus(n, StatusAssociate)
	n.Head = h
	n.Candidate = false
	nw.resetHeadState(n)
}

// becomeBootup clears all relationships.
func (nw *Network) becomeBootup(n *Node) {
	nw.setStatus(n, StatusBootup)
	n.Head = radio.None
	n.Candidate = false
	nw.resetHeadState(n)
}
