package core

import (
	"gs3/internal/geom"
	"gs3/internal/radio"
)

// This file holds every write to a node's links in the head graph: its
// Parent, ParentIL, Hops, Children and Neighbors. Only heads read other
// nodes' links, so a link write is reported through touchLinks, which
// moves the full view of the topology epochs and not the associate
// view that associates' and bootup nodes' sweep caches, and the
// ASSOCIATE_ORG_RESP memo, watch. Every other write keeps touch. A lint
// (lint_test.go) holds the five fields and touchLinks to this file.

// touchLinks records a change to node id's links in the full view of
// the medium's topology epochs, invalidating the sweep cache of every
// head whose cone covers the node. The big node is no exception: the
// root test every head runs reads its Status, Head and Proxy, which
// touch reports globally, and no sweep reads its links from beyond
// its cone.
func (nw *Network) touchLinks(id radio.NodeID) {
	nw.med.TouchLinks(id)
}

// setParent sets n's parent, the parent's IL and n's hop count.
func (nw *Network) setParent(n *Node, parent radio.NodeID, parentIL geom.Point, hops int32) {
	n.Parent, n.ParentIL, n.Hops = parent, parentIL, hops
	nw.touchLinks(n.ID)
}

// addChild adds id to h's children, if absent.
func (nw *Network) addChild(h *Node, id radio.NodeID) {
	h.Children = nw.addUniqueID(h.Children, id)
	nw.touchLinks(h.ID)
}

// dropChild removes id from h's children.
func (nw *Network) dropChild(h *Node, id radio.NodeID) {
	h.Children = removeID(h.Children, id)
	nw.touchLinks(h.ID)
}

// linkNeighbors records a–b as neighboring cell heads on both sides.
func (nw *Network) linkNeighbors(a, b radio.NodeID) {
	if a == b {
		return
	}
	an, bn := nw.node(a), nw.node(b)
	if an == nil || bn == nil {
		return
	}
	if !containsID(an.Neighbors, b) {
		an.Neighbors = nw.appendID(an.Neighbors, b)
		nw.touchLinks(a)
	}
	if !containsID(bn.Neighbors, a) {
		bn.Neighbors = nw.appendID(bn.Neighbors, a)
		nw.touchLinks(b)
	}
}

// setNeighbors makes h's neighbors the heads of heads other than h, in
// their order, rewriting the list only when it differs, so a steady
// state stays epoch-quiet. heads may alias a network scratch buffer:
// the list is copied into h's own (capacity-reused) slice.
func (nw *Network) setNeighbors(h *Node, heads []radio.NodeID) {
	same := true
	j := 0
	for _, id := range heads {
		if id == h.ID {
			continue
		}
		if j >= len(h.Neighbors) || h.Neighbors[j] != id {
			same = false
			break
		}
		j++
	}
	if same && j == len(h.Neighbors) {
		return
	}
	h.Neighbors = h.Neighbors[:0]
	for _, id := range heads {
		if id != h.ID {
			h.Neighbors = nw.appendID(h.Neighbors, id)
		}
	}
	nw.touchLinks(h.ID)
}

// repointLinksOf rewrites n's parent, child and neighbor references
// from old to repl, whose node is rn (nil if none).
func (nw *Network) repointLinksOf(n *Node, old, repl radio.NodeID, rn *Node) {
	changed := false
	if n.Parent == old {
		n.Parent = repl
		if rn != nil {
			n.ParentIL = rn.IL
		}
		changed = true
	}
	if containsID(n.Children, old) {
		n.Children = nw.addUniqueID(removeID(n.Children, old), repl)
		changed = true
	}
	if containsID(n.Neighbors, old) {
		n.Neighbors = nw.addUniqueID(removeID(n.Neighbors, old), repl)
		changed = true
	}
	if changed {
		nw.touchLinks(n.ID)
	}
}

// inheritLinks gives repl the links of old's cell, whose head role it
// takes over: old's parent and hop count, and copies of its children
// and neighbors, less repl itself.
func (nw *Network) inheritLinks(repl, old *Node) {
	repl.Parent, repl.ParentIL, repl.Hops = old.Parent, old.ParentIL, old.Hops
	repl.Children = removeID(nw.cloneIDs(old.Children), repl.ID)
	repl.Neighbors = removeID(nw.cloneIDs(old.Neighbors), repl.ID)
	nw.touchLinks(repl.ID)
}

// resetHeadState clears head-role links when a node leaves the head
// role, recycling its link chunks. A node that holds none, as every
// associate and bootup node does, is left as it is.
func (nw *Network) resetHeadState(n *Node) {
	if n.Children == nil && n.Neighbors == nil && n.Parent == radio.None && n.Hops == 0 {
		return
	}
	nw.arena.put(n.Children)
	nw.arena.put(n.Neighbors)
	n.Children, n.Neighbors = nil, nil
	n.Parent, n.Hops = radio.None, 0
	nw.touchLinks(n.ID)
}
