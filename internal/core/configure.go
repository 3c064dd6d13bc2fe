package core

import (
	"fmt"

	"gs3/internal/geom"
	"gs3/internal/hexlat"
	"gs3/internal/radio"
	"gs3/internal/trace"
)

// StartConfiguration boots the GS³-S diffusing computation: the big node
// assumes the head role for the 0-band cell (its IL is its own location)
// and schedules its HEAD_ORG. Call Engine().Run to let the computation
// diffuse; it terminates when the event queue drains (Corollary 4).
func (nw *Network) StartConfiguration() error {
	if nw.bigID == radio.None {
		return fmt.Errorf("core: no big node in the network")
	}
	big := nw.node(nw.bigID)
	pos := nw.Position(nw.bigID)
	nw.setStatus(big, StatusHead)
	big.IL = pos
	big.OIL = pos
	big.Spiral = hexlat.SpiralIndex{}
	big.Parent = nw.bigID // P(H₀) = H₀
	big.ParentIL = pos
	big.Hops = 0
	nw.touch(nw.bigID)
	nw.scheduleHeadOrg(nw.bigID, 0)
	return nil
}

// orgLatency is the virtual-time cost of one HEAD_ORG round: the org
// broadcast out, the replies back, and the HeadSet broadcast out, each
// covering the search radius.
func (nw *Network) orgLatency() float64 {
	return 3 * nw.med.Delay(nw.cfg.SearchRadius()+nw.cfg.Rt)
}

// scheduleHeadOrg queues a HEAD_ORG action for head id after delay
// (jittered when faults are active).
func (nw *Network) scheduleHeadOrg(id radio.NodeID, delay float64) {
	nw.eng.After(nw.jittered(delay), func() { nw.HeadOrg(id) })
}

// scheduleOrgRetry arms the HEAD_ORG timeout of head id: when it fires
// with the head's neighborhood still incomplete — an unowned,
// conflict-free neighboring IL with nodes in its candidate area, the
// state a lost HEAD_ORG reply leaves behind — the head re-issues its
// organization broadcast. Waits start at RetryBackoff round latencies
// and double per attempt, bounded by OrgRetries. Reliable radios never
// arm the timer.
func (nw *Network) scheduleOrgRetry(id radio.NodeID, attempt int) {
	if !nw.faults.Active() || attempt > nw.cfg.OrgRetries {
		return
	}
	wait := nw.cfg.RetryBackoff * nw.orgLatency() * float64(uint64(1)<<uint(attempt-1))
	nw.eng.After(nw.jittered(wait), func() { nw.orgRetry(id, attempt) })
}

// orgRetry fires one HEAD_ORG timeout: if the neighborhood is still
// incomplete, re-issue via a full rescan (counted in radio.Stats as a
// retry) and re-arm with doubled backoff; otherwise the timer dies.
func (nw *Network) orgRetry(id radio.NodeID, attempt int) {
	h := nw.node(id)
	if h == nil || !nw.Reachable(id) || !h.Status.IsHeadRole() {
		return
	}
	if !nw.orgIncomplete(h) {
		return
	}
	nw.med.CountRetry()
	nw.RescanAround(id)
	nw.scheduleOrgRetry(id, attempt+1)
}

// orgIncomplete reports whether some neighboring IL of h is unowned yet
// serviceable: no head owns it, no existing head conflicts with it, and
// its candidate area holds at least one small node that could head it.
func (nw *Network) orgIncomplete(h *Node) bool {
	for _, il := range nw.sixILs(h) {
		if _, ok := nw.ilOwner(il); ok {
			continue
		}
		if nw.ilConflicts(il) {
			continue
		}
		if len(nw.smallAt(il, nw.cfg.Rt)) > 0 {
			return true
		}
	}
	return false
}

// smallAt returns the alive small (non-big, non-head) nodes within dist
// of p. The result aliases the network's scratch buffer (filterQuery).
func (nw *Network) smallAt(p geom.Point, dist float64) []radio.NodeID {
	return nw.filterQuery(p, dist, radio.None, func(n *Node) bool {
		return !n.IsBig && (n.Status == StatusBootup || n.Status == StatusAssociate)
	})
}

// HeadOrg executes the HEAD_ORG module at head id: it discovers the
// nodes in its search region, selects heads for the neighboring cells
// whose ILs are not yet owned (HEAD_SELECT), announces the selection,
// and lets the small nodes in range (re-)choose their best head
// (ASSOCIATE_ORG_RESP). The head then transitions to status work.
//
// The action is a no-op if id is dead or no longer in a head role —
// exactly the behaviour of a crashed initiator in the paper's model.
func (nw *Network) HeadOrg(id radio.NodeID) {
	h := nw.node(id)
	if h == nil || !nw.Alive(id) || !h.Status.IsHeadRole() {
		return
	}
	nw.metrics.HeadOrgs++
	nw.emit(trace.KindHeadOrg, id, radio.None, h.IL)
	cfg := nw.cfg

	// The org broadcast must reach the whole search region, whose apex
	// is IL(i); the head itself may sit up to Rt from its IL, so it
	// widens its transmission range by Rt.
	receivers, _ := nw.med.Broadcast(id, cfg.SearchRadius()+cfg.Rt)

	isRoot := h.IsBig && h.Parent == id
	sector := SearchSector(cfg, h.IL, h.ParentIL, isRoot)

	// Partition the responders. Head selection (HEAD_SELECT) considers
	// only nodes inside the search sector, but ASSOCIATE_ORG_RESP runs
	// at every small node that hears the org broadcast. The partitions
	// live in the HEAD_ORG scratch: they are read across the whole
	// action, including its nested queries.
	smallNodes, allSmall := nw.orgSmall[:0], nw.orgAll[:0]
	for _, rid := range receivers {
		rn := nw.node(rid)
		if rn == nil || !nw.Alive(rid) {
			continue
		}
		if rn.Status == StatusBootup || rn.Status == StatusAssociate {
			allSmall = append(allSmall, rid)
		}
		p := nw.Position(rid)
		if !sector.Contains(p) {
			continue
		}
		// Every sector member replies — existing heads included, though
		// only small nodes feed HEAD_SELECT.
		nw.metrics.ReplyMessages++
		if rn.Status == StatusBootup || rn.Status == StatusAssociate {
			smallNodes = append(smallNodes, rid)
		}
	}
	nw.orgSmall, nw.orgAll = smallNodes, allSmall

	nw.headSelect(h, neighborILsAppend(nw.ilBuf[:0], cfg, h.IL, h.ParentIL, isRoot), smallNodes)
	nw.associateOrgResp(id, allSmall)

	if h.Status != StatusWork {
		nw.setStatus(h, StatusWork) // Head→Work: no head-role flip
		nw.touch(id)
	}
	nw.scheduleOrgRetry(id, 1)
}

// headSelect is HEAD_SELECT at head h over the neighboring ILs ils,
// shared by HeadOrg and RescanAround: an IL some head already owns
// becomes a neighbor link (Step 2); an IL too close to an existing
// head is skipped; otherwise the best node of CA(il) among smallNodes
// is promoted to head the new child cell, whose own HEAD_ORG follows
// one org round later. An IL with an empty CA is an Rt-gap (or the
// boundary): GS³-D skips the cell and re-checks it on boundary rescans.
func (nw *Network) headSelect(h *Node, ils []geom.Point, smallNodes []radio.NodeID) {
	for _, il := range ils {
		if owner, ok := nw.ilOwner(il); ok {
			nw.linkNeighbors(h.ID, owner)
			continue
		}
		if nw.ilConflicts(il) {
			continue
		}
		best, ok := BestCandidate(il, nw.cfg.GR, nw.caOf(il, smallNodes), nw.Position)
		if !ok {
			continue
		}
		nw.promoteToHead(best, il, h, h.Hops+1)
		nw.linkNeighbors(h.ID, best)
		if !containsID(h.Children, best) {
			h.Children = nw.appendID(h.Children, best)
			nw.touch(h.ID)
		}
		nw.scheduleHeadOrg(best, nw.orgLatency())
	}
}

// associateOrgResp sends head id's HeadSet broadcast and lets every
// small node among receivers re-choose its best head
// (ASSOCIATE_ORG_RESP), shared by HeadOrg and RescanAround. A choice
// writes only the chooser's own state, never a head role, so every
// receiver chooses against the same head set, and one head gather
// answers them all (see gatherHeads) instead of a range query each.
func (nw *Network) associateOrgResp(id radio.NodeID, receivers []radio.NodeID) {
	nw.med.Broadcast(id, nw.cfg.SearchRadius()+nw.cfg.Rt)
	if len(receivers) == 0 {
		return
	}
	gather := nw.gatherHeads(id)
	for _, rid := range receivers {
		if n := nw.chooser(rid); n != nil {
			p := nw.Position(rid)
			nw.chooseHeadAmong(n, p, nw.headsHeard(gather, p))
		}
	}
}

// gatheredHead is one head of a HEAD_ORG's gather, with its position.
type gatheredHead struct {
	id  radio.NodeID
	pos geom.Point
}

// gatherHeads collects, with one range query, every head a receiver of
// head id's org broadcast could hear. Receivers lie within SR+Rt of id
// and hear heads within SR of themselves, so all such heads lie within
// 2·SR+Rt of id; the disk of radius 2·(SR+Rt) holds them with an Rt of
// margin for rounding. The disk ignores obstacles, because line of
// sight depends on the receiver (headsHeard tests it from there), and
// drops blacked-out heads, which no receiver hears. The result is in
// ascending ID order and aliases the network's gather scratch.
func (nw *Network) gatherHeads(id radio.NodeID) []gatheredHead {
	cfg := nw.cfg
	nw.queryBuf = nw.med.HeadsWithinDisk(nw.queryBuf[:0], nw.Position(id), 2*(cfg.SearchRadius()+cfg.Rt))
	out := nw.gather[:0]
	for _, hid := range nw.queryBuf {
		if !nw.med.InBlackout(hid) {
			out = append(out, gatheredHead{hid, nw.Position(hid)})
		}
	}
	nw.gather = out
	return out
}

// headsHeard filters a head gather down to the heads a small node at p
// hears: exactly reachableHeadsAt(p, SR), in the same ascending ID
// order, without a range query of its own. It applies the medium's
// range predicate with the same operands (head.Dist2(p) ≤ SR·SR) and
// tests occlusion from p, as the medium does for a query at p. The
// result aliases the network's heard scratch.
func (nw *Network) headsHeard(gather []gatheredHead, p geom.Point) []radio.NodeID {
	sr := nw.cfg.SearchRadius()
	r2 := sr * sr
	obs := nw.med.Obstacles()
	out := nw.heard[:0]
	for _, g := range gather {
		if g.pos.Dist2(p) <= r2 && (len(obs) == 0 || !geom.AnyOccludes(obs, p, g.pos)) {
			out = append(out, g.id)
		}
	}
	nw.heard = out
	return out
}

// ilOwner reports whether some existing head owns the cell at il, i.e.
// its own IL is within Rt of il. It prefers the closest owner.
func (nw *Network) ilOwner(il geom.Point) (radio.NodeID, bool) {
	best := radio.None
	bestD := nw.cfg.Rt
	for _, hid := range nw.headRoleAt(il, nw.cfg.Rt) {
		hn := nw.node(hid)
		if d := hn.IL.Dist(il); d <= bestD {
			best, bestD = hid, d
		}
	}
	return best, best != radio.None
}

// ilConflicts reports whether creating a cell head at il would put two
// heads illegally close: some existing head sits within the minimum
// legal neighbor-head distance √3R − 2Rt of il. A corrupted node's
// off-lattice ILs always conflict with the real structure, so this
// guard keeps state corruption from cascading through HEAD_ORG.
func (nw *Network) ilConflicts(il geom.Point) bool {
	return len(nw.headRoleAt(il, nw.cfg.NeighborDistMin())) > 0
}

// caOf returns CA(il): the small nodes within Rt of il (HEAD_SELECT
// Step 3). The result aliases the network's caBuf scratch: it is valid
// until the next caOf call and must not be retained.
func (nw *Network) caOf(il geom.Point, smallNodes []radio.NodeID) []radio.NodeID {
	out := nw.caBuf[:0]
	for _, id := range smallNodes {
		if nw.Position(id).Dist(il) <= nw.cfg.Rt {
			out = append(out, id)
		}
	}
	nw.caBuf = out
	return out
}

// promoteToHead installs the head role on node id for the cell at il.
// The new cell inherits the selecting head's ⟨ICC, ICP⟩ shift state
// (the SYN_CELL convention): its OIL is the unshifted lattice point, so
// same-spiral neighbor ILs stay exactly √3·R apart even after slides.
func (nw *Network) promoteToHead(id radio.NodeID, il geom.Point, scanner *Node, hops int32) {
	n := nw.node(id)
	nw.setStatus(n, StatusHead)
	n.IL = il
	n.OIL = il.Add(scanner.OIL.Sub(scanner.IL))
	n.Spiral = scanner.Spiral
	n.Parent = scanner.ID
	n.ParentIL = scanner.IL
	n.Hops = hops
	n.Head = radio.None
	n.Candidate = false
	nw.touch(id)
	nw.metrics.HeadsSelected++
	nw.emit(trace.KindHeadSelected, id, scanner.ID, il)
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
		nw.touch(a)
	}
	if !containsID(bn.Neighbors, a) {
		bn.Neighbors = nw.appendID(bn.Neighbors, a)
		nw.touch(b)
	}
}

// ChooseHead runs ASSOCIATE_ORG_RESP for small node id: among the alive
// head-role nodes within the local-coordination range of the node, pick
// the best (closest; ties broken by the ⟨d,|A|,A⟩ angle rule with GR)
// and become its associate. The node becomes (or stays) bootup when no
// head is in range. Returns the chosen head or radio.None.
func (nw *Network) ChooseHead(id radio.NodeID) radio.NodeID {
	n := nw.chooser(id)
	if n == nil {
		return radio.None
	}
	p := nw.Position(id)
	return nw.chooseHeadAmong(n, p, nw.reachableHeadsAt(p, nw.cfg.SearchRadius()))
}

// chooser returns node id if it may run ASSOCIATE_ORG_RESP — an alive
// small node, neither the big node nor in a head role — and nil
// otherwise.
func (nw *Network) chooser(id radio.NodeID) *Node {
	n := nw.node(id)
	if n == nil || !nw.Alive(id) || n.Status.IsHeadRole() || n.IsBig {
		return nil
	}
	return n
}

// chooseHeadAmong is the ASSOCIATE_ORG_RESP decision of small node n at
// p, given the heads it hears (reachableHeadsAt(p, SR), or the same
// list filtered from a head gather): associate with the best of them,
// or become bootup when there is none.
func (nw *Network) chooseHeadAmong(n *Node, p geom.Point, heads []radio.NodeID) radio.NodeID {
	best, ok := BestCandidate(p, nw.cfg.GR, heads, nw.Position)
	if !ok {
		if n.Status != StatusBootup || n.Head != radio.None || n.Candidate {
			nw.becomeBootup(n)
			nw.touch(n.ID)
		}
		return radio.None
	}
	bn := nw.node(best)
	cand := p.Dist(bn.IL) <= nw.cfg.Rt
	// Guarded on change: a settled associate re-choosing the same head
	// (the steady-state outcome every sweep) stays epoch-quiet.
	if n.Status != StatusAssociate || n.Head != best || n.Candidate != cand ||
		(cand && (n.CellIL != bn.IL || n.CellOIL != bn.OIL || n.CellSpiral != bn.Spiral)) {
		nw.becomeAssociate(n, best)
		n.Candidate = cand
		if cand {
			// Candidates replicate the cell state from the HeadSet
			// broadcast so the cell survives its head's death.
			n.CellIL, n.CellOIL, n.CellSpiral = bn.IL, bn.OIL, bn.Spiral
		}
		nw.touch(n.ID)
	}
	return best
}

// SettleAssociates runs ChooseHead for every alive non-head small node,
// in ID order. It is the network-wide equivalent of every node having
// heard the org broadcasts of all nearby heads, and is used by the
// harness to verify fixpoint F₃ (each associate has the best head).
// It returns the number of nodes whose head changed.
func (nw *Network) SettleAssociates() int {
	changed := 0
	for _, id := range nw.SortedIDs() {
		n := nw.node(id)
		if n == nil || !nw.Alive(id) || n.Status.IsHeadRole() || n.IsBig {
			continue
		}
		before := n.Head
		nw.ChooseHead(id)
		if n.Head != before {
			changed++
		}
	}
	return changed
}
