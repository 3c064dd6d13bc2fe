package core

import (
	"math"

	"gs3/internal/geom"
	"gs3/internal/hexlat"
	"gs3/internal/radio"
	"gs3/internal/trace"
)

// Variant selects which algorithm layer the maintenance sweeps run.
type Variant int

// Algorithm variants (paper sections 3, 4, 5).
const (
	VariantS Variant = iota + 1 // static: no maintenance
	VariantD                    // dynamic: GS³-D healing
	VariantM                    // mobile dynamic: GS³-D + big-node mobility
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantS:
		return "GS3-S"
	case VariantD:
		return "GS3-D"
	case VariantM:
		return "GS3-M"
	}
	return "invalid"
}

// StartMaintenance schedules the recurring per-node maintenance sweeps
// that implement GS³-D (and, with VariantM, GS³-M). Each node sweeps
// every HeartbeatInterval with a deterministic per-node phase so sweeps
// interleave rather than firing simultaneously.
func (nw *Network) StartMaintenance(v Variant) {
	if v == VariantS {
		return
	}
	nw.variant = v
	if nw.maintaining {
		return
	}
	nw.maintaining = true
	// Per-send energy drain applies to maintenance-era traffic only:
	// configure is energy-free by design (batteries meter the network's
	// operating lifetime, not its setup), so the hook goes in here.
	if nw.sendCostsActive() {
		nw.med.SetSendHook(nw.drainSendEnergy)
	}
	interval := nw.cfg.HeartbeatInterval
	for _, id := range nw.SortedIDs() {
		phase := interval * float64(int(id)%17) / 17
		nw.scheduleSweep(id, phase)
	}
}

// StopMaintenance stops the sweep loop. It empties every queued sweep
// batch, so the batch's event still fires, as a no-op: it sweeps
// nobody, even after a restart that schedules the same nodes again.
func (nw *Network) StopMaintenance() {
	nw.maintaining = false
	nw.med.SetSendHook(nil)
	nw.lastBatch = nil
	clear(nw.batches)
	for _, b := range nw.batchByID {
		b.ids = b.ids[:0]
	}
}

// scheduleSweep queues node id's next maintenance sweep after delay,
// stretched by the fault layer's jitter when that is active.
//
// Consecutively scheduled sweeps due at the same instant share one
// engine event, and the batch executes them in append order. This
// reproduces per-event scheduling exactly, because a batch is sealed
// the moment any other event is scheduled (Engine.Scheduled moved past
// its mark): an event due at the same instant then fires between the
// sealed batch and the next one — precisely where its sequence number
// would have put it among per-node sweep events. The open batch is
// almost always the one opened last — a draining batch reschedules all
// its nodes to one instant — so that is checked before the map. Under
// jitter every node draws its own fire time, so batches simply hold
// one node each.
func (nw *Network) scheduleSweep(id radio.NodeID, delay float64) {
	delay = nw.jittered(delay)
	at := nw.eng.Now() + delay
	b := nw.lastBatch
	if b == nil || b.at != at {
		b = nw.batches[at]
	}
	if b == nil || nw.eng.Scheduled()-b.seqMark != nw.batchEvents-b.evMark {
		b = nw.newBatch()
		b.at = at
		nw.batches[at] = b // seals any previous batch for this time
		nw.lastBatch = b
		nw.eng.After(delay, nw.kinds.sweep, b.id)
		nw.batchEvents++
		b.seqMark = nw.eng.Scheduled()
		b.evMark = nw.batchEvents
	}
	b.ids = append(b.ids, id)
}

// runSweepBatch fires batch b's sweeps in scheduling order, then
// credits the batch's replays, so Stats and Metrics are exact again
// when the event ends. Sweeps reschedule into strictly later batches
// (HeartbeatInterval is validated positive), so the slice never grows
// under the iteration.
func (nw *Network) runSweepBatch(b *sweepBatch) {
	if nw.batches[b.at] == b {
		delete(nw.batches, b.at)
	}
	if nw.lastBatch == b {
		nw.lastBatch = nil
	}
	for _, id := range b.ids {
		nw.sweep(id)
	}
	nw.creditReplays()
	b.ids = b.ids[:0]
	nw.batchFree = append(nw.batchFree, b)
}

// creditReplays adds every replay counted since the last credit to the
// medium's Stats and the protocol Metrics, count × delta per interned
// delta. Replays only count (quiescentSweep); the credit runs at the
// end of every sweep event and before any full sweep body, which reads
// Stats and Metrics to record its own delta, so both are exact at every
// engine-event boundary. All counters are uint64, so the deferred sum
// equals the per-sweep running total bit for bit.
func (nw *Network) creditReplays() {
	t := &nw.deltas
	for _, i := range t.due {
		k := uint64(t.counts[i])
		t.counts[i] = 0
		nw.med.AddStats(t.deltas[i].stats, k)
		nw.addMetrics(t.deltas[i].metrics, k)
	}
	t.due = t.due[:0]
}

func (nw *Network) newBatch() *sweepBatch {
	if n := len(nw.batchFree); n > 0 {
		b := nw.batchFree[n-1]
		nw.batchFree = nw.batchFree[:n-1]
		return b
	}
	b := &sweepBatch{id: int32(len(nw.batchByID))}
	nw.batchByID = append(nw.batchByID, b)
	return b
}

// sweep is one maintenance round at node id: heartbeat exchange,
// failure detection, healing, and energy dissipation.
func (nw *Network) sweep(id radio.NodeID) {
	if !nw.maintaining {
		return
	}
	if nw.sweepOnce(id) {
		nw.scheduleSweep(id, nw.cfg.HeartbeatInterval)
	}
}

// sweepOnce executes the body of one maintenance round at node id and
// reports whether the node should be rescheduled. It is the unit the
// quiescence cache elides: when the node's recorded sweep is provably
// still current, only the mandatory per-sweep work (counters, energy)
// happens and the recorded accounting is counted for replay. Until a
// full body runs it reads no Node: liveness and the head role come from
// the medium, bigness from the ID, and the counter from the node's
// sweep record (see store.go).
func (nw *Network) sweepOnce(id radio.NodeID) bool {
	if !nw.Alive(id) {
		return false
	}
	// Transient blackout (fault layer): a blacked-out node keeps its
	// state but does nothing — its radio is off — until the restore event
	// brings it back. Small nodes roll the blackout-start dice once per
	// sweep; the big node is mains-powered and exempt.
	if nw.med.InBlackout(id) {
		return true
	}
	isBig := id == nw.bigID
	if !isBig {
		if sweeps := nw.faults.BlackoutStart(); sweeps > 0 {
			nw.beginBlackout(id, sweeps*nw.cfg.HeartbeatInterval)
			return true
		}
	}
	rec := nw.recordOf(id)
	rec.sweep++
	sweep := rec.sweep

	// The energy model (lifetime experiments) drains every small node;
	// the big node is mains-powered in the paper's model and never dies.
	if nw.cfg.InitialEnergy != 0 && !isBig && !nw.drainEnergy(id) {
		return false
	}

	if nw.quiescentSweep(id) {
		nw.sweepReplays++
		return true
	}
	nw.sweepBodies++
	// The full body reads Stats and Metrics: credit the replays this
	// batch has counted so far, so it sees them exact.
	nw.creditReplays()

	// Record a fresh quiescent delta only when the full sweep proves
	// itself a no-op: the topology epoch not moving across the body
	// means no touch fired, i.e. every write was value-identical.
	n := nw.node(id)
	cacheable := nw.cacheable() && !isBig
	var epochBefore uint64
	var statsBefore radio.Stats
	var metricsBefore Metrics
	if cacheable {
		epochBefore = nw.med.Epoch()
		statsBefore = nw.med.Stats()
		metricsBefore = nw.metrics
	}

	switch {
	case isBig:
		nw.sweepBig(n)
	case n.Status.IsHeadRole():
		nw.headIntraCell(n)
		if n.Status.IsHeadRole() { // may have retreated
			nw.headInterCell(n)
		}
		if n.Status.IsHeadRole() && sweep%SanityCheckEvery == 0 {
			nw.SanityCheck(id)
		}
	case n.Status == StatusAssociate:
		nw.associateIntraCell(n)
	case n.Status == StatusBootup:
		nw.ChooseHead(id)
	}

	if cacheable && nw.med.Epoch() == epochBefore {
		nw.recordSweep(n, statsBefore, metricsBefore)
	}
	return true
}

// quiescentSweep is the fast path: if the node's recorded sweep delta
// is still provably current — its flavor is recorded and no topology
// epoch in its query cone moved since it was recorded — replay the
// recorded accounting (a replay count, credited by creditReplays, and
// for rescan sweeps the HEAD_ORG trace event) and skip
// the scans entirely. Returns false when the full sweep must run.
func (nw *Network) quiescentSweep(id radio.NodeID) bool {
	if id == nw.bigID || !nw.cacheable() {
		return false
	}
	c := nw.recordOf(id)
	isHead := nw.med.IsHead(id)
	rescanDue := false
	if isHead {
		// An imminent low-energy retreat is precisely a non-quiescent
		// sweep, and energy drain never touches, so no epoch shows it.
		// A pending child repair needs no such guard: the body that set
		// it touched the head, so the cache stays stale until a full
		// body repairs the child. Only a head recorded sane may skip a
		// SANITY_CHECK round (an insane one might have to retreat this
		// time).
		if nw.lowEnergy(id) {
			return false
		}
		if !c.sane && c.sweep%SanityCheckEvery == 0 {
			return false
		}
		rescanDue = c.sweep%uint32(nw.cfg.BoundaryRescanEvery) == 0
	}
	d := c.plain
	if rescanDue {
		d = c.rescan
	}
	if d == 0 {
		return false
	}
	if world := nw.worldEpoch(isHead); world != c.worldStamp {
		if nw.coneEpoch(id, isHead) != c.regionStamp {
			return false
		}
		c.worldStamp = world
	}
	nw.deltas.replay(d)
	if rescanDue && nw.tracer != nil {
		// The elided rescan's externally visible side: its HEAD_ORG
		// trace event. The tracer test comes first so an untraced
		// replay reads no Node.
		nw.emit(trace.KindHeadOrg, id, radio.None, nw.node(id).IL)
	}
	return true
}

// recordSweep stores the accounting of a sweep that changed nothing,
// stamped with the current epoch of the node's query cone. A rescan
// sweep (it ran HEAD_ORG exactly once) lands in the rescan flavor,
// every other no-op sweep in the plain flavor. If the cone's epoch
// moved since the sibling flavor was recorded, that sibling describes a
// stale neighborhood and is dropped.
func (nw *Network) recordSweep(n *Node, statsBefore radio.Stats, metricsBefore Metrics) {
	c := nw.recordOf(n.ID)
	isHead := n.Status.IsHeadRole()
	cone := nw.coneRadius(isHead)
	// A sweep that reads a live node beyond the cone (possible when
	// mobility carried a linked node away before the link healed) cannot
	// be stamped: changes at that node would not move the cone's epochs.
	if !nw.linksLocal(n, cone) {
		return
	}
	region := nw.coneEpoch(n.ID, isHead)
	if region != c.regionStamp {
		c.plain, c.rescan = 0, 0
		c.regionStamp = region
	}
	d := &c.plain
	if nw.metrics.HeadOrgs > metricsBefore.HeadOrgs {
		d = &c.rescan
	}
	*d = nw.deltas.intern(sweepDelta{nw.med.Stats().Sub(statsBefore), nw.metrics.sub(metricsBefore)})
	c.worldStamp = nw.worldEpoch(isHead)
	if isHead {
		c.sane = nw.headStateValid(n)
	}
}

// linksLocal reports whether every live node n references sits inside
// cone of n's position. Dead links are fine — a removed node's state is
// frozen, so nothing it does can change a replayed sweep — but a live
// link beyond the cone could change state without moving any epoch the
// cache stamps cover, so such a sweep is never recorded. Links only get
// that far through mobility, and the mover's old-cell epoch bump
// invalidates the cache that watched it leave.
func (nw *Network) linksLocal(n *Node, cone float64) bool {
	pos := nw.Position(n.ID)
	local := func(id radio.NodeID) bool {
		if id == radio.None || id == n.ID || !nw.med.Alive(id) {
			return true
		}
		p, _ := nw.med.Position(id)
		return pos.Dist(p) <= cone
	}
	if !local(n.Parent) || !local(n.Head) {
		return false
	}
	for _, id := range n.Children {
		if !local(id) {
			return false
		}
	}
	for _, id := range n.Neighbors {
		if !local(id) {
			return false
		}
	}
	return true
}

// beginBlackout takes node id's radio down for dur virtual time and
// schedules the restore. State is preserved across the outage — this is
// a crash/restart with stable storage, not a death.
func (nw *Network) beginBlackout(id radio.NodeID, dur float64) {
	nw.med.SetBlackout(id, true)
	nw.eng.After(dur, nw.kinds.restore, int32(id))
}

// restoreFromBlackout brings node id's radio back. A restored head whose
// cell was healed in its absence (a candidate was elected onto the same
// IL) yields instead of fighting the replacement: it hears the new
// head's heartbeat first thing after restart and re-joins as a small
// node, exactly as the paper's restarted-node rule prescribes.
func (nw *Network) restoreFromBlackout(id radio.NodeID) {
	nw.med.SetBlackout(id, false)
	n := nw.node(id)
	if n == nil || !nw.Alive(id) {
		return
	}
	if n.IsBig || !n.Status.IsHeadRole() {
		return
	}
	for _, hid := range nw.headRoleAt(n.IL, nw.cfg.SearchRadius()) {
		if hid != id && nw.node(hid).IL.Dist(n.IL) <= nw.cfg.Rt {
			nw.becomeBootup(n)
			nw.ChooseHead(id)
			return
		}
	}
}

// drainEnergy charges small node id one sweep interval of the energy
// model and reports whether the node survived it. Its one caller,
// sweepOnce, tests that the model is on, so a sweep without it makes no
// call.
func (nw *Network) drainEnergy(id radio.NodeID) bool {
	rate := nw.cfg.AssociateDissipation
	if nw.med.IsHead(id) {
		rate *= nw.cfg.HeadEnergyFactor
	}
	cd := nw.coldOf(id)
	cd.Energy -= rate * nw.cfg.HeartbeatInterval
	if cd.Energy <= 0 {
		nw.Kill(id)
		return false
	}
	return true
}

// drainSendEnergy is the medium's send hook while per-send costs are
// active: every actual transmission subtracts its cost from the
// sender's battery. Depletion does not kill synchronously — the sender
// is mid-action, often mid-broadcast, and yanking it off the medium
// there would corrupt in-flight protocol state. Instead a zero-delay
// energy_death event re-checks and kills after the current action
// completes, which is also when a real node's radio would brown out.
func (nw *Network) drainSendEnergy(sender radio.NodeID, broadcast bool) {
	if sender == nw.bigID || !nw.Alive(sender) {
		return
	}
	cost := nw.cfg.UnicastCost
	if broadcast {
		cost = nw.cfg.BroadcastCost
	}
	if cost == 0 {
		return
	}
	cd := nw.coldOf(sender)
	was := cd.Energy
	cd.Energy -= cost
	if was > 0 && cd.Energy <= 0 {
		nw.eng.After(0, nw.kinds.energyDeath, int32(sender))
	}
}

// energyDeath finalizes a depletion detected by drainSendEnergy. It
// re-checks both liveness and energy: the node may already be dead, and
// a node with charge left is never killed.
func (nw *Network) energyDeath(id radio.NodeID) {
	if !nw.Alive(id) || nw.coldOf(id).Energy > 0 {
		return
	}
	nw.Kill(id)
}

// lowEnergy reports whether head id should proactively retreat: it
// could not survive another sweep as head but could as an associate.
func (nw *Network) lowEnergy(id radio.NodeID) bool {
	if nw.cfg.InitialEnergy == 0 || id == nw.bigID {
		return false
	}
	headCost := nw.cfg.AssociateDissipation * nw.cfg.HeadEnergyFactor * nw.cfg.HeartbeatInterval
	return nw.coldOf(id).Energy <= headCost
}

// ---- Intra-cell maintenance (HEAD_INTRA_CELL & friends) ----

// headIntraCell executes the intra-cell maintenance of head h:
// heartbeats with associates, proactive retreat when resource-scarce
// (head shift), cell strengthening when the candidate set is empty
// (cell shift), and cell abandonment when the cell is heavily perturbed.
func (nw *Network) headIntraCell(h *Node) {
	candidates := nw.Candidates(h.ID)

	// Heartbeat: candidates refresh their copy of the cell state. A
	// replica that is already current is left untouched so a steady
	// state stays epoch-quiet.
	for _, cid := range candidates {
		nw.setCandidate(nw.node(cid), h, true)
	}

	if nw.lowEnergy(h.ID) && len(candidates) > 0 {
		// head_retreat: the highest-ranked candidate takes over.
		if best, ok := BestCandidate(h.IL, nw.cfg.GR, candidates, nw.Position); ok {
			nw.transferHeadRole(h, nw.node(best))
			nw.metrics.HeadShifts++
			return
		}
	}

	if len(candidates) == 0 {
		nw.StrengthenCell(h.ID)
	}
}

// StrengthenCell implements cell shift: advance the cell's current IL
// along the ⟨ICC, ICP⟩ spiral (pitch √3·Rt, oriented by GR, anchored at
// the OIL) to the next IL inside the cell's coverage whose candidate
// area is non-empty, then hand the head role to the best node there. If
// no such IL exists, or the shifted IL would violate the hexagonal
// relation with the neighboring cells beyond the allowed deviation, the
// cell is abandoned.
func (nw *Network) StrengthenCell(id radio.NodeID) {
	h := nw.node(id)
	if h == nil || !h.Status.IsHeadRole() {
		return
	}
	cfg := nw.cfg
	lat := hexlat.New(h.OIL, math.Sqrt(3)*cfg.Rt, cfg.GR)

	// Members that can serve the shifted cell: current associates plus
	// bootup nodes inside the cell's coverage.
	members := nw.cellMembers(h)

	maxRing := int(cfg.R/(math.Sqrt(3)*cfg.Rt)) + 2
	idx := h.Spiral
	for steps := 0; steps < 1+3*maxRing*(maxRing+1); steps++ {
		idx = hexlat.NextSpiral(idx)
		if int(idx.ICC) > maxRing {
			break
		}
		il := lat.Center(hexlat.SpiralPoint(idx))
		if il.Dist(h.OIL) > cfg.R {
			continue // outside the cell's coverage
		}
		ca := nw.caOf(il, members)
		if len(ca) == 0 {
			continue
		}
		if nw.ilDeviatesTooMuch(h, il) {
			break // heavy perturbation: abandon below
		}
		// Shift the cell and hand over the head role. The members leave
		// the head out, so the best of CA(il) is another node, and
		// transferHeadRole's touch of the head reports the shifted IL.
		nw.metrics.CellShifts++
		nw.emit(trace.KindCellShift, h.ID, radio.None, il)
		h.IL = il
		h.Spiral = idx
		best, _ := BestCandidate(il, cfg.GR, ca, nw.Position)
		nw.transferHeadRole(h, nw.node(best))
		nw.metrics.HeadShifts++
		return
	}
	nw.AbandonCell(id)
}

// ilDeviatesTooMuch implements the abandonment trigger: the distance
// between the shifted IL and a living neighbor's IL must stay within
// (0, 2·√3·R) — the bound the GS³-D invariant places on neighboring ILs
// with different ⟨ICC, ICP⟩.
func (nw *Network) ilDeviatesTooMuch(h *Node, il geom.Point) bool {
	limit := 2 * nw.cfg.HeadSpacing()
	for _, nid := range h.Neighbors {
		nh := nw.node(nid)
		if nh == nil || !nw.Alive(nid) || !nh.Status.IsHeadRole() {
			continue
		}
		d := il.Dist(nh.IL)
		if d <= 0 || d >= limit {
			return true
		}
	}
	return false
}

// cellMembers returns the nodes eligible to serve cell h: its alive
// associates and any bootup node within the cell's coverage.
// The result aliases the network's scratch buffer (see filterQuery).
func (nw *Network) cellMembers(h *Node) []radio.NodeID {
	hid := h.ID
	return nw.filterQuery(h.OIL, nw.cfg.R+nw.cfg.Rt, hid, func(n *Node) bool {
		if n.IsBig || !nw.Alive(n.ID) || nw.med.InBlackout(n.ID) {
			return false
		}
		return (n.Status == StatusAssociate && n.Head == hid) || n.Status == StatusBootup
	})
}

// transferHeadRole moves the entire cell-head state from old to new:
// the paper's head_retreat + candidate election, or the handover after
// a cell shift. Parent, children, and neighbor links are re-pointed.
func (nw *Network) transferHeadRole(old, repl *Node) {
	nw.emit(trace.KindHeadShift, old.ID, repl.ID, old.IL)
	nw.inheritLinks(repl, old)
	nw.becomeHead(repl, StatusWork, old.IL, old.OIL, old.Spiral)
	nw.repointLinks(old.ID, repl.ID)

	if old.IsBig {
		// BIG_SLIDE: the big node cedes headship but stays special; it
		// reclaims the role when the cell's IL returns to it.
		nw.setStatus(old, StatusBigSlide)
		old.Head = repl.ID
		nw.resetHeadState(old)
		nw.touch(old.ID)
	} else {
		// The retiring head stays in the cell, as a candidate when it
		// lies within Rt of the IL, with the cell's state replicated
		// like any other candidate's.
		nw.becomeAssociate(old, repl.ID)
		nw.setCandidate(old, repl, nw.Position(old.ID).Within(repl.IL, nw.cfg.Rt))
	}
}

// repointLinks rewrites parent/children/neighbor references from old to
// repl on the surrounding heads and re-homes the old head's associates.
func (nw *Network) repointLinks(old, repl radio.NodeID) {
	rn := nw.node(repl)
	for _, id := range nw.SortedIDs() {
		n := nw.node(id)
		if n == nil || id == old || id == repl {
			continue
		}
		nw.repointLinksOf(n, old, repl, rn)
		changed := false
		if n.Status == StatusAssociate && n.Head == old {
			n.Head = repl
			changed = true
		}
		if cd := nw.coldOf(id); cd.Proxy == old {
			cd.Proxy = repl
			changed = true
		}
		if changed {
			nw.touch(id)
		}
	}
}

// AbandonCell implements cell abandonment: every node of the cell
// (including the head) transits to bootup and re-joins a neighboring
// cell on its next sweep.
func (nw *Network) AbandonCell(id radio.NodeID) {
	h := nw.node(id)
	if h == nil || !h.Status.IsHeadRole() {
		return
	}
	nw.metrics.Abandonments++
	nw.emit(trace.KindAbandon, id, radio.None, h.IL)
	for _, aid := range nw.Associates(id) {
		nw.becomeBootup(nw.node(aid))
	}
	if h.IsBig {
		nw.setStatus(h, StatusBigSlide)
		nw.resetHeadState(h)
		nw.touch(id)
		return
	}
	nw.becomeBootup(h)
}

// associateIntraCell is the maintenance sweep of an associate (and of a
// candidate, which is an associate within Rt of the cell's IL): detect
// head failure and heal it by head shift (candidates) or by re-joining
// (non-candidates); otherwise keep the best head.
func (nw *Network) associateIntraCell(n *Node) {
	head := nw.node(n.Head)
	if nw.hearsHead(n.ID, n.Head) && head.Status.IsHeadRole() {
		// Heartbeat succeeded: re-evaluate candidacy and head choice.
		// Writes are guarded on change so a settled cell stays
		// epoch-quiet sweep after sweep.
		nw.setCandidate(n, head, nw.Position(n.ID).Within(head.IL, nw.cfg.Rt))
		nw.ChooseHead(n.ID) // switch if a better head appeared
		return
	}

	// Head failed (or left the head role without telling us).
	if n.Candidate {
		nw.electFromCandidates(n)
		return
	}
	nw.becomeBootup(n)
	nw.ChooseHead(n.ID)
}

// hearsHead reports whether node id hears head's heartbeat: head is a
// live head (or the big node), up, and within the search radius of id.
func (nw *Network) hearsHead(id, head radio.NodeID) bool {
	h := nw.node(head)
	return h != nil && nw.Alive(head) && (h.Status.IsHeadRole() || h.IsBig) &&
		!nw.med.InBlackout(head) && nw.med.Dist(id, head) <= nw.cfg.SearchRadius()
}

// electFromCandidates implements the candidate coordination after a
// head failure: the candidates of the dead head's cell (identified by
// the cell IL each candidate carries) elect the highest-ranked one as
// the new head, which inherits the cell state the candidates replicate.
// If that one still hears the head, the detector alone lost it (it
// moved away): it re-joins elsewhere, and nobody is elected.
func (nw *Network) electFromCandidates(detector *Node) {
	deadHead := detector.Head
	il := detector.CellIL
	candidates := nw.filterQuery(il, nw.cfg.Rt, radio.None, func(c *Node) bool {
		return nw.Alive(c.ID) && c.Status == StatusAssociate && c.Head == deadHead &&
			!nw.med.InBlackout(c.ID)
	})
	best, ok := BestCandidate(il, nw.cfg.GR, candidates, nw.Position)
	if !ok || nw.hearsHead(best, deadHead) {
		nw.becomeBootup(detector)
		nw.ChooseHead(detector.ID)
		return
	}
	repl := nw.node(best)
	nw.setParent(repl, radio.None, repl.ParentIL, unknownHops) // re-acquired by inter-cell maintenance
	nw.becomeHead(repl, StatusWork, detector.CellIL, detector.CellOIL, detector.CellSpiral)
	nw.metrics.Promotions++
	nw.metrics.HeadShifts++
	nw.emit(trace.KindPromotion, best, deadHead, repl.IL)
	// Remaining members re-attach; the dead head's ID is dangling state
	// that each member clears on its own sweep, but re-pointing the
	// obvious ones now models the election broadcast within the cell.
	nw.repointLinks(deadHead, best)
	// Under sustained faults, promotions happen continuously and each
	// parentless window would keep the convergence watchdog from ever
	// seeing a clean sweep; the election announcement doubles as the
	// neighbor discovery, so the new head seeks its parent right away.
	if nw.faults.Active() {
		nw.setNeighbors(repl, nw.reachableHeadsAt(nw.Position(best), nw.cfg.SearchRadius()))
		nw.ParentSeek(best)
	}
}

// unknownHops marks a hop count that must be re-learned from neighbors.
const unknownHops = 1 << 20

// ---- Inter-cell maintenance (HEAD_INTER_CELL) ----

// headInterCell executes inter-cell maintenance at head h: refresh the
// neighbor-head set, maintain the min-distance parent (fixpoint F₁.₂),
// repair failed children by re-organizing, and rescan the boundary for
// newly appeared nodes.
func (nw *Network) headInterCell(h *Node) {
	cfg := nw.cfg

	// head_inter_alive: the neighbor set is re-derived from the medium
	// every sweep, which makes it self-stabilizing by construction.
	nw.setNeighbors(h, nw.reachableHeadsAt(nw.Position(h.ID), cfg.SearchRadius()))

	// Children list hygiene: drop entries that are no longer heads.
	// Backward iteration keeps the in-place removal safe (removeID
	// shifts the tail left, which only re-visits already-kept entries).
	lostChild := false
	for i := len(h.Children) - 1; i >= 0; i-- {
		c := h.Children[i]
		cn := nw.node(c)
		if cn == nil || !nw.Alive(c) || !cn.Status.IsHeadRole() {
			nw.dropChild(h, c)
			lostChild = true
		}
	}

	nw.ParentSeek(h.ID)

	// A lost child's cell gets one heartbeat of grace for its own
	// intra-cell maintenance (head shift) before the parent repairs it
	// with HEAD_ORG — the paper's priority order. The periodic boundary
	// rescan runs unconditionally.
	hc := nw.coldOf(h.ID)
	repairDue := hc.pendingChildRepair
	hc.pendingChildRepair = lostChild
	if repairDue || nw.recordOf(h.ID).sweep%uint32(cfg.BoundaryRescanEvery) == 0 {
		hc.pendingChildRepair = false
		nw.RescanAround(h.ID)
	}
}

// ParentSeek maintains h's parent as the neighboring head closest (in
// head-graph hops) to the big node, the distributed Bellman–Ford step
// that realizes fixpoint F₁.₂. The big node and the current proxy are
// the distance-0 roots.
func (nw *Network) ParentSeek(id radio.NodeID) {
	h := nw.node(id)
	if h == nil || !h.Status.IsHeadRole() {
		return
	}
	if nw.isRootHead(h) {
		if h.Hops != 0 || h.Parent != id || h.ParentIL != h.IL {
			nw.setParent(h, id, h.IL, 0)
		}
		return
	}
	nw.metrics.ParentSeeks++

	bestParent := radio.None
	bestHops := int32(unknownHops)
	bestDist := math.Inf(1)
	for _, nid := range h.Neighbors {
		nh := nw.node(nid)
		if nh == nil || !nw.Reachable(nid) || !nh.Status.IsHeadRole() {
			continue
		}
		d := nw.med.Dist(id, nid)
		if nh.Hops < bestHops || (nh.Hops == bestHops && d < bestDist) {
			bestParent, bestHops, bestDist = nid, nh.Hops, d
		}
	}
	if bestParent == radio.None {
		// Disconnected from every head: hold state; a later sweep or a
		// neighbor's rescan will reconnect us.
		if h.Hops != unknownHops {
			nw.setParent(h, h.Parent, h.ParentIL, unknownHops)
		}
		return
	}
	// Paper rule: switch only when a neighbor is strictly closer to the
	// big node than the current parent. A live current parent at the
	// same hop distance is kept — this stickiness is what contains the
	// impact of a big-node move to the √3·d/2 region of Theorem 11.
	if cp := nw.node(h.Parent); h.Parent != radio.None && cp != nil &&
		nw.Reachable(h.Parent) && cp.Status.IsHeadRole() &&
		containsID(h.Neighbors, h.Parent) && cp.Hops <= bestHops {
		if h.ParentIL != cp.IL || h.Hops != cp.Hops+1 {
			nw.setParent(h, h.Parent, cp.IL, cp.Hops+1)
		}
		return
	}
	old := h.Parent
	bp := nw.node(bestParent)
	nw.setParent(h, bestParent, bp.IL, bestHops+1)
	if old != bestParent {
		if on := nw.node(old); on != nil {
			nw.dropChild(on, id)
		}
		nw.addChild(bp, id)
		nw.emit(trace.KindParentChange, id, bestParent, h.IL)
	}
}

// isRootHead reports whether h anchors the head graph: the big node,
// or the head RootHead names in its place (the proxy of a moving big
// node, or — during a BIG_SLIDE — the head of the cell the big node is
// a member of). Without the slide case the head graph has no
// distance-0 root while the big node's cell IL is away, and ParentSeek
// counts to infinity.
func (nw *Network) isRootHead(h *Node) bool {
	return h.IsBig || h.ID == nw.RootHead()
}

// RescanAround runs HEAD_ORG at head id over the full circle of six
// neighboring ILs (orgRound, with every receiver replying): the
// boundary-rescan and child-repair duty of HEAD_INTER_CELL. Unowned ILs
// with a non-empty candidate area get a head; newly appeared bootup
// nodes in range re-choose heads.
func (nw *Network) RescanAround(id radio.NodeID) {
	h := nw.node(id)
	if h == nil || !nw.Alive(id) || !h.Status.IsHeadRole() {
		return
	}
	nw.orgRound(h, ilRing(nw.ilBuf[:0], nw.cfg, h.IL, h.ParentIL, true), nil)
}

// ---- Sanity checking (SANITY_CHECK) ----

// SanityCheck verifies head id's state against the hexagonal invariant
// and retreats (head_retreat_corrupted) when the state is found corrupt
// while every neighboring head attests a valid state. If some neighbor
// is invalid too, the node cannot decide and re-checks next period
// (exactly the paper's rule). It returns true when the state was found
// valid.
//
// Validity is a head's *self* consistency with the structure it claims
// membership of: it sits within Rt of its IL, and its IL lies on its
// parent's cell lattice (distance exactly √3·R when both cells are in
// the same ⟨ICC, ICP⟩ shift state, and within the DI bound otherwise).
// A corrupted node fails its own check while leaving its neighbors'
// checks intact, so a lone corruption is always decided; contiguous
// corrupted regions are peeled from their boundary inward, giving the
// O(D_c) stabilization of Theorem 7.
func (nw *Network) SanityCheck(id radio.NodeID) bool {
	h := nw.node(id)
	if h == nil || !nw.Alive(id) || !h.Status.IsHeadRole() {
		return true
	}
	// Self-evident corruption — my own position versus my own claimed
	// IL — needs no attestation: retreat immediately.
	if nw.headSelfEvidentCorrupt(h) {
		nw.sanityRetreat(h)
		return false
	}
	if nw.headRelationalValid(h) {
		return true
	}
	// Relational violation: either I am corrupt or a neighbor is.
	// sanity_check_req: retreat only if every neighbor attests a fully
	// valid state; otherwise wait and re-check next period.
	for _, nid := range h.Neighbors {
		nh := nw.node(nid)
		// A blacked-out neighbor cannot answer the attestation request;
		// it simply does not vote, like a dead one.
		if nh == nil || !nw.Reachable(nid) || !nh.Status.IsHeadRole() {
			continue
		}
		if !nw.headStateValid(nh) {
			return false
		}
	}
	nw.sanityRetreat(h)
	return false
}

// sanityRetreat implements head_retreat_corrupted: the head and every
// member of its cell transit to bootup and re-join fresh, so corrupted
// cell state (a displaced IL replicated into the candidates) cannot
// re-elect itself.
func (nw *Network) sanityRetreat(h *Node) {
	nw.metrics.SanityRetreats++
	nw.emit(trace.KindSanityRetreat, h.ID, radio.None, h.IL)
	id := h.ID
	for _, aid := range nw.Associates(id) {
		nw.becomeBootup(nw.node(aid))
	}
	nw.becomeBootup(h)
	nw.ChooseHead(id)
}

// ilLatticeTol is the tolerance for "exactly √3R" IL distances; ILs are
// derived by exact lattice arithmetic, so only float error accumulates.
func (nw *Network) ilLatticeTol() float64 {
	return 1e-6 * nw.cfg.R
}

// headSelfEvidentCorrupt holds when a head's state contradicts facts it
// can observe alone: it is farther than Rt from the IL it claims to
// serve, or it is a non-root head with no parent.
func (nw *Network) headSelfEvidentCorrupt(h *Node) bool {
	if nw.Position(h.ID).Dist(h.IL) > nw.cfg.Rt {
		return true
	}
	return !nw.isRootHead(h) && h.Parent == radio.None
}

// headRelationalValid checks the hexagonal relation between h's IL and
// its live parent's IL: exactly √3·R when both cells share a ⟨ICC,ICP⟩
// shift state, within the DI bound (0, 2√3·R) otherwise. A parent in
// transition cannot invalidate the child.
func (nw *Network) headRelationalValid(h *Node) bool {
	if nw.isRootHead(h) {
		return true
	}
	p := nw.node(h.Parent)
	if p == nil || !nw.Alive(h.Parent) || !p.Status.IsHeadRole() {
		return true
	}
	d := h.IL.Dist(p.IL)
	if p.Spiral == h.Spiral {
		return math.Abs(d-nw.cfg.HeadSpacing()) <= nw.ilLatticeTol()
	}
	return d > 0 && d < 2*nw.cfg.HeadSpacing()
}

// headStateValid is the full validity predicate used when attesting to
// a neighbor's sanity_check_req.
func (nw *Network) headStateValid(h *Node) bool {
	return !nw.headSelfEvidentCorrupt(h) && nw.headRelationalValid(h)
}

// ---- Node join (SMALL_NODE_BOOT_UP) ----

// Join adds a new small node at p to a running network and lets it find
// a head (or stay bootup and retry on its sweeps). It returns the new
// node's ID, or radio.None, adding and counting nothing, when AddNode
// refuses p (it is not finite).
func (nw *Network) Join(p geom.Point) radio.NodeID {
	id, err := nw.AddNode(p, false)
	if err != nil {
		return radio.None
	}
	nw.metrics.Joins++
	nw.emit(trace.KindJoin, id, radio.None, p)
	nw.ChooseHead(id)
	if nw.maintaining {
		nw.scheduleSweep(id, nw.cfg.HeartbeatInterval*float64(int(id)%17)/17)
	}
	return id
}
