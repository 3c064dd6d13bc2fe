package core

import (
	"fmt"
	"math"

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
	nw.setParent(big, nw.bigID, pos, 0) // P(H₀) = H₀
	nw.becomeHead(big, StatusHead, pos, pos, hexlat.SpiralIndex{})
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
	nw.eng.After(nw.jittered(delay), nw.kinds.headOrg, int32(id))
}

// scheduleOrgRetry arms the HEAD_ORG timeout of head id: when it fires
// with the head's neighborhood still incomplete — an unowned,
// conflict-free neighboring IL with nodes in its candidate area, the
// state a lost HEAD_ORG reply leaves behind — the head re-issues its
// organization broadcast. Waits start at retryBackoff round latencies
// and double per attempt, bounded by orgRetries. Reliable radios never
// arm the timer.
func (nw *Network) scheduleOrgRetry(id radio.NodeID, attempt int) {
	if !nw.faults.Active() || attempt > orgRetries {
		return
	}
	wait := retryBackoff * nw.orgLatency() * float64(uint64(1)<<uint(attempt-1))
	nw.eng.After(nw.jittered(wait), nw.kinds.orgRetry, int32(id)*(orgRetries+1)+int32(attempt))
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

// orgIncomplete reports whether some neighboring IL of h is free for a
// new cell (ilClaim) yet serviceable: its candidate area holds at least
// one small node that could head it.
func (nw *Network) orgIncomplete(h *Node) bool {
	for _, il := range ilRing(nw.ilBuf[:0], nw.cfg, h.IL, h.ParentIL, true) {
		if _, free := nw.ilClaim(il); free && len(nw.smallAt(il, nw.cfg.Rt)) > 0 {
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

// HeadOrg executes the HEAD_ORG module at head id: one org round over
// its search sector and its neighboring ILs (orgRound), after which the
// head transitions to status work and, under faults, arms its retry
// timer.
//
// The action is a no-op if id is dead or no longer in a head role —
// exactly the behaviour of a crashed initiator in the paper's model.
func (nw *Network) HeadOrg(id radio.NodeID) {
	h := nw.node(id)
	if h == nil || !nw.Alive(id) || !h.Status.IsHeadRole() {
		return
	}
	isRoot := h.IsBig && h.Parent == id
	sector := SearchSector(nw.cfg, h.IL, h.ParentIL, isRoot)
	nw.orgRound(h, ilRing(nw.ilBuf[:0], nw.cfg, h.IL, h.ParentIL, isRoot), &sector)
	if h.Status != StatusWork {
		nw.setStatus(h, StatusWork) // Head→Work: no head-role flip
		nw.touch(id)
	}
	nw.scheduleOrgRetry(id, 1)
}

// orgRound runs one HEAD_ORG round at head h (paper §3.2, Figure 3),
// the module configuration and the boundary rescan share: it discovers
// the nodes in its search region with the org broadcast, selects heads
// for the neighboring cells at ils whose ILs are not yet owned
// (HEAD_SELECT), announces the selection, and lets every small node
// that heard it (re-)choose its best head (ASSOCIATE_ORG_RESP). A
// receiver replies only from inside sector, and a nil sector (the
// rescan's) lets every receiver reply; every replier counts a reply
// message, existing heads included, though only small nodes feed
// HEAD_SELECT.
func (nw *Network) orgRound(h *Node, ils []geom.Point, sector *geom.Sector) {
	id := h.ID
	nw.metrics.HeadOrgs++
	nw.emit(trace.KindHeadOrg, id, radio.None, h.IL)
	audience := nw.orgAudience(id)
	receivers := nw.med.Broadcast(id, audience)

	// The partitions live in the HEAD_ORG scratch: they are read across
	// the whole round, including its nested queries.
	repliers, small := nw.orgSmall[:0], nw.orgAll[:0]
	for _, rid := range receivers {
		rn := nw.node(rid)
		if rn == nil || !nw.Alive(rid) {
			continue
		}
		isSmall := rn.Status == StatusBootup || rn.Status == StatusAssociate
		if isSmall {
			small = append(small, rid)
		}
		if sector != nil && !sector.Contains(nw.Position(rid)) {
			continue
		}
		nw.metrics.ReplyMessages++
		if isSmall {
			repliers = append(repliers, rid)
		}
	}
	nw.orgSmall, nw.orgAll = repliers, small

	nw.headSelect(h, ils, repliers)
	nw.associateOrgResp(id, audience, small)
}

// headSelect is HEAD_SELECT at head h over the neighboring ILs ils
// (ilClaim decides each): an IL some head already owns becomes a
// neighbor link (Step 2); an IL too close to an existing head is
// skipped; otherwise the best node of CA(il) among smallNodes is
// promoted to head the new child cell, whose own HEAD_ORG follows one
// org round later. An IL with an empty CA is an Rt-gap (or the
// boundary): GS³-D skips the cell and re-checks it on boundary rescans.
func (nw *Network) headSelect(h *Node, ils []geom.Point, smallNodes []radio.NodeID) {
	for _, il := range ils {
		owner, free := nw.ilClaim(il)
		if owner != radio.None {
			nw.linkNeighbors(h.ID, owner)
		}
		if !free {
			continue
		}
		best, ok := BestCandidate(il, nw.cfg.GR, nw.caOf(il, smallNodes), nw.Position)
		if !ok {
			continue
		}
		nw.promoteToHead(best, il, h, h.Hops+1)
		nw.linkNeighbors(h.ID, best)
		if !containsID(h.Children, best) {
			nw.addChild(h, best)
		}
		nw.scheduleHeadOrg(best, nw.orgLatency())
	}
}

// orgAudience returns the audience of head id's org broadcast (see
// radio.Medium.Audience). The broadcast must reach the whole search
// region, whose apex is IL(i); the head itself may sit up to Rt from its
// IL, so it widens its transmission range by Rt. The result aliases the
// network's audience scratch, which lives across the whole HEAD_ORG or
// rescan: its HeadSet broadcast goes to the same audience.
func (nw *Network) orgAudience(id radio.NodeID) []radio.NodeID {
	nw.audience = nw.med.Audience(nw.audience[:0], id, nw.cfg.SearchRadius()+nw.cfg.Rt)
	return nw.audience
}

// associateOrgResp sends head id's HeadSet broadcast to audience, the
// audience of its org broadcast, and lets every small node among
// receivers re-choose its best head (ASSOCIATE_ORG_RESP), shared by
// HeadOrg and RescanAround. The audience is still current: HEAD_SELECT,
// which runs between the two broadcasts, changes roles and links but
// moves no node, removes none and blacks none out. A choice writes only
// the chooser's own state, never a head role, so every receiver chooses
// against the same head set, and one head gather answers them all (see
// gatherHeads) instead of a range query each.
//
// A receiver whose chose stamp still matches the medium's associate-view
// epoch is skipped: the choice reads only what that view covers (heads'
// positions, roles, ILs and blackouts, obstacles, the receiver's own
// state) and counts nothing, so re-running it would change nothing. The
// skip obeys SetSweepCache, so the brute-force reference re-chooses.
func (nw *Network) associateOrgResp(id radio.NodeID, audience, receivers []radio.NodeID) {
	nw.med.Broadcast(id, audience)
	if len(receivers) == 0 {
		return
	}
	gather := nw.gatherHeads(id)
	sr := nw.cfg.SearchRadius()
	r2, obs := sr*sr, nw.med.Obstacles()
	for _, rid := range receivers {
		n := nw.chooser(rid)
		if n == nil || nw.cacheOn && n.chose == nw.med.AssocEpoch()+1 {
			continue
		}
		nw.choices++
		p := nw.Position(rid)
		head, cand := nw.headChoice(p, nw.headsHeard(gather, p, r2, obs))
		nw.adoptHead(n, head, cand)
		n.chose = nw.med.AssocEpoch() + 1
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

// heardHead is a head a small node hears: its index in the head gather
// and its squared distance.
type heardHead struct {
	g  int
	d2 float64
}

// headsHeard filters a head gather down to the heads a small node at p
// hears, then to those BestCandidate could pick among them. r2 is SR²
// and obs the medium's obstacles. The heads heard are exactly
// reachableHeadsAt(p, SR), found without a range query of its own: it
// applies the medium's range predicate with the same operands
// (head.Dist2(p) ≤ SR·SR), then tests occlusion from p, as the medium
// does for a query at p, on the few heads in range. Of those it keeps,
// in the same ascending ID order, the heads inside the band of the
// nearest one (see geom.SurelyFarther): any other is strictly farther
// by Hypot than the nearest, so it cannot be BestCandidate's pick, and
// BestCandidate over what remains — usually the nearest head alone —
// picks exactly what it would over every head heard. The result aliases
// the network's heard scratch.
func (nw *Network) headsHeard(gather []gatheredHead, p geom.Point, r2 float64, obs []geom.Polygon) []radio.NodeID {
	near := nw.near[:0]
	for i := range gather {
		if d2 := gather[i].pos.Dist2(p); d2 <= r2 {
			near = append(near, heardHead{i, d2})
		}
	}
	nw.near = near
	if len(obs) != 0 {
		in := near[:0]
		for _, h := range near {
			if !geom.AnyOccludes(obs, p, gather[h.g].pos) {
				in = append(in, h)
			}
		}
		near = in
	}
	nearest := math.Inf(1)
	for _, h := range near {
		if h.d2 < nearest {
			nearest = h.d2
		}
	}
	out := nw.heard[:0]
	for _, h := range near {
		if !geom.SurelyFarther(h.d2, nearest) {
			out = append(out, gather[h.g].id)
		}
	}
	nw.heard = out
	return out
}

// ilClaim is HEAD_SELECT's test of a neighboring IL. owner is the head
// that owns the cell at il — the closest existing head whose own IL is
// within Rt of il — or radio.None. free reports whether a new cell may
// be created at il: no head owns it, and no existing head sits within
// the minimum legal neighbor-head distance √3R − 2Rt of it, where a
// new head would put two heads illegally close. A corrupted node's
// off-lattice ILs always conflict with the real structure, so this
// guard keeps state corruption from cascading through HEAD_ORG.
func (nw *Network) ilClaim(il geom.Point) (owner radio.NodeID, free bool) {
	owner = radio.None
	bestD := nw.cfg.Rt
	for _, hid := range nw.headRoleAt(il, nw.cfg.Rt) {
		if d := nw.node(hid).IL.Dist(il); d <= bestD {
			owner, bestD = hid, d
		}
	}
	if owner != radio.None {
		return owner, false
	}
	return radio.None, len(nw.headRoleAt(il, nw.cfg.NeighborDistMin())) == 0
}

// caOf returns CA(il): the small nodes within Rt of il (HEAD_SELECT
// Step 3). The result aliases the network's caBuf scratch: it is valid
// until the next caOf call and must not be retained.
func (nw *Network) caOf(il geom.Point, smallNodes []radio.NodeID) []radio.NodeID {
	out := nw.caBuf[:0]
	for _, id := range smallNodes {
		if nw.Position(id).Within(il, nw.cfg.Rt) {
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
	nw.setParent(n, scanner.ID, scanner.IL, hops)
	nw.becomeHead(n, StatusHead, il, il.Add(scanner.OIL.Sub(scanner.IL)), scanner.Spiral)
	nw.metrics.HeadsSelected++
	nw.emit(trace.KindHeadSelected, id, scanner.ID, il)
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
	head, cand := nw.headChoice(p, nw.reachableHeadsAt(p, nw.cfg.SearchRadius()))
	nw.adoptHead(n, head, cand)
	return head
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

// headChoice is the ASSOCIATE_ORG_RESP decision of a small node at p,
// given the heads it hears (reachableHeadsAt(p, SR), or the list
// headsHeard filters from a head gather, on which BestCandidate picks
// the same head): the best of them, and whether p lies within Rt of that
// head's IL, which makes it a candidate of the cell. It returns
// radio.None when the node hears no head.
func (nw *Network) headChoice(p geom.Point, heads []radio.NodeID) (head radio.NodeID, cand bool) {
	best, ok := BestCandidate(p, nw.cfg.GR, heads, nw.Position)
	if !ok {
		return radio.None, false
	}
	return best, p.Within(nw.node(best).IL, nw.cfg.Rt)
}

// adoptHead applies small node n's headChoice: associate with head, as a
// candidate of its cell when cand, or become bootup when head is
// radio.None. Every write is guarded on change: a settled associate
// re-choosing the same head (the steady-state outcome every sweep)
// stays epoch-quiet.
func (nw *Network) adoptHead(n *Node, head radio.NodeID, cand bool) {
	if head == radio.None {
		if n.Status != StatusBootup || n.Head != radio.None || n.Candidate {
			nw.becomeBootup(n)
		}
		return
	}
	if n.Status != StatusAssociate || n.Head != head {
		nw.becomeAssociate(n, head)
	}
	// Candidates replicate the cell state from the HeadSet broadcast so
	// the cell survives its head's death.
	nw.setCandidate(n, nw.node(head), cand)
}
