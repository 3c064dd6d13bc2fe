package core

import (
	"math"

	"gs3/internal/geom"
	"gs3/internal/hexlat"
	"gs3/internal/radio"
	"gs3/internal/sim"
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

// StopMaintenance stops the sweep loop and eagerly drops every queued
// sweep batch from the engine, so nothing keeps retaining the network
// through dead closures.
func (nw *Network) StopMaintenance() {
	nw.maintaining = false
	nw.med.SetSendHook(nil)
	for _, b := range nw.pending {
		b.handle.Cancel()
		nw.recycleBatch(b)
	}
	nw.pending = nw.pending[:0]
	nw.lastBatch = nil
	for at := range nw.batches {
		delete(nw.batches, at)
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
		b.handle = nw.eng.After(delay, b.fire)
		nw.batchEvents++
		b.seqMark = nw.eng.Scheduled()
		b.evMark = nw.batchEvents
		b.idx = len(nw.pending)
		nw.pending = append(nw.pending, b)
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
	nw.unpend(b)
	for _, id := range b.ids {
		nw.sweep(id)
	}
	nw.creditReplays()
	nw.recycleBatch(b)
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
		nw.med.AddStats(t.deltas[i].statsDelta(k))
		nw.addMetrics(t.deltas[i].metricsDelta(k))
	}
	t.due = t.due[:0]
}

// unpend swap-removes b from the pending list.
func (nw *Network) unpend(b *sweepBatch) {
	last := len(nw.pending) - 1
	if b.idx < last {
		moved := nw.pending[last]
		nw.pending[b.idx] = moved
		moved.idx = b.idx
	}
	nw.pending[last] = nil
	nw.pending = nw.pending[:last]
}

func (nw *Network) newBatch() *sweepBatch {
	if n := len(nw.batchFree); n > 0 {
		b := nw.batchFree[n-1]
		nw.batchFree = nw.batchFree[:n-1]
		return b
	}
	b := &sweepBatch{}
	b.fire = func() { nw.runSweepBatch(b) }
	return b
}

func (nw *Network) recycleBatch(b *sweepBatch) {
	b.ids = b.ids[:0]
	b.at = 0
	b.handle = sim.Handle{}
	b.seqMark = 0
	b.evMark = 0
	b.idx = -1
	nw.batchFree = append(nw.batchFree, b)
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
// happens and the recorded accounting is counted for replay.
func (nw *Network) sweepOnce(id radio.NodeID) bool {
	n := nw.node(id)
	if n == nil || n.Status == StatusDead {
		return false
	}
	// Transient blackout (fault layer): a blacked-out node keeps its
	// state but does nothing — its radio is off — until the restore event
	// brings it back. Small nodes roll the blackout-start dice once per
	// sweep; the big node is mains-powered and exempt.
	if nw.med.InBlackout(id) {
		return true
	}
	if !n.IsBig {
		if sweeps, ok := nw.faults.BlackoutStart(); ok {
			nw.beginBlackout(id, sweeps*nw.cfg.HeartbeatInterval)
			return true
		}
	}
	nw.coldOf(id).sweep++

	nw.drainEnergy(n)
	if n.Status == StatusDead {
		return false
	}

	if nw.quiescentSweep(n) {
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
	cacheable := nw.cacheable() && !n.IsBig
	var epochBefore uint64
	var statsBefore radio.Stats
	var metricsBefore Metrics
	if cacheable {
		epochBefore = nw.med.Epoch()
		statsBefore = nw.med.Stats()
		metricsBefore = nw.metrics
	}

	switch {
	case n.IsBig:
		nw.sweepBig(n)
	case n.Status.IsHeadRole():
		nw.headIntraCell(n)
		if n.Status.IsHeadRole() { // may have retreated
			nw.headInterCell(n)
		}
		if n.Status.IsHeadRole() && nw.coldOf(id).sweep%uint32(nw.cfg.SanityCheckEvery) == 0 {
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
// for rescan sweeps the head-org trace and footprint sends) and skip
// the scans entirely. Returns false when the full sweep must run.
func (nw *Network) quiescentSweep(n *Node) bool {
	if n.IsBig || !nw.cacheable() {
		return false
	}
	cd := nw.coldOf(n.ID)
	c := nw.cacheFor(n.ID)
	isHead := n.Status.IsHeadRole()
	rescanDue := false
	if isHead {
		// A pending child repair or an imminent low-energy retreat is
		// precisely a non-quiescent sweep; and only a head recorded
		// sane may skip a SANITY_CHECK round (an insane one might have
		// to retreat this time).
		if cd.pendingChildRepair || nw.lowEnergy(n) {
			return false
		}
		if !c.sane && cd.sweep%uint32(nw.cfg.SanityCheckEvery) == 0 {
			return false
		}
		rescanDue = cd.sweep%uint32(nw.cfg.BoundaryRescanEvery) == 0
	}
	d := c.plain
	if rescanDue {
		d = c.rescan
	}
	if d == 0 {
		return false
	}
	if world := nw.med.Epoch(); world != c.worldStamp {
		if nw.med.RegionEpoch(nw.Position(n.ID), nw.coneRadius(isHead)) != c.regionStamp {
			return false
		}
		c.worldStamp = world
	}
	nw.deltas.replay(d)
	if rescanDue {
		// The elided rescan's externally visible side: the HEAD_ORG
		// trace event and the two org broadcasts' footprint sends.
		nw.emit(trace.KindHeadOrg, n.ID, radio.None, n.IL)
		nw.med.TraceSend(n.ID)
		nw.med.TraceSend(n.ID)
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
	c := nw.cacheFor(n.ID)
	isHead := n.Status.IsHeadRole()
	cone := nw.coneRadius(isHead)
	// A sweep that reads a live node beyond the cone (possible when
	// mobility carried a linked node away before the link healed) cannot
	// be stamped: changes at that node would not move the cone's epochs.
	if !nw.linksLocal(n, cone) {
		return
	}
	region := nw.med.RegionEpoch(nw.Position(n.ID), cone)
	if region != c.regionStamp {
		c.plain, c.rescan = 0, 0
		c.regionStamp = region
	}
	d := &c.plain
	if nw.metrics.HeadOrgs > metricsBefore.HeadOrgs {
		d = &c.rescan
	}
	*d = nw.deltas.intern(nw.med.Stats().Sub(statsBefore), nw.metrics.sub(metricsBefore))
	if *d == 0 {
		return // an increment overflowed uint16: this sweep stays uncached
	}
	c.worldStamp = nw.med.Epoch()
	if isHead {
		c.sane = nw.headStateValid(n)
	}
}

// linksLocal reports whether every live node n references sits inside
// cone of n's position. Dead links are fine — a removed node's state is
// frozen, so nothing it does can change a replayed sweep — but a live
// link beyond the cone could change state without moving any epoch the
// cache stamps cover, so such a sweep is never recorded. Links only get
// that far through mobility, and the mover's old-bucket epoch bump
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
	nw.eng.After(dur, func() { nw.restoreFromBlackout(id) })
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
			nw.touch(id)
			nw.ChooseHead(id)
			return
		}
	}
}

// drainEnergy applies the energy model for one sweep interval. The big
// node is mains-powered in the paper's model and never dies.
func (nw *Network) drainEnergy(n *Node) {
	if nw.cfg.InitialEnergy == 0 || n.IsBig {
		return
	}
	rate := nw.cfg.AssociateDissipation
	if n.Status.IsHeadRole() {
		rate *= nw.cfg.HeadEnergyFactor
	}
	cd := nw.coldOf(n.ID)
	cd.Energy -= rate * nw.cfg.HeartbeatInterval
	if cd.Energy <= 0 {
		nw.Kill(n.ID)
	}
}

// drainSendEnergy is the medium's send hook while per-send costs are
// active: every actual transmission subtracts its cost from the
// sender's battery. Depletion does not kill synchronously — the sender
// is mid-action, often mid-broadcast, and yanking it off the medium
// there would corrupt in-flight protocol state. Instead a zero-delay
// energy_death event re-checks and kills after the current action
// completes, which is also when a real node's radio would brown out.
func (nw *Network) drainSendEnergy(sender radio.NodeID, broadcast bool) {
	n := nw.node(sender)
	if n == nil || n.IsBig || n.Status == StatusDead {
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
		nw.eng.After(0, func() { nw.energyDeath(sender) })
	}
}

// energyDeath finalizes a depletion detected by drainSendEnergy. It
// re-checks both liveness and energy: the node may already be dead, or
// a scenario may have recharged it (SetEnergy) in the meantime.
func (nw *Network) energyDeath(id radio.NodeID) {
	n := nw.node(id)
	if n == nil || n.Status == StatusDead || nw.coldOf(id).Energy > 0 {
		return
	}
	nw.Kill(id)
}

// lowEnergy reports whether a head should proactively retreat: it could
// not survive another sweep as head but could as an associate.
func (nw *Network) lowEnergy(n *Node) bool {
	if nw.cfg.InitialEnergy == 0 || n.IsBig {
		return false
	}
	headCost := nw.cfg.AssociateDissipation * nw.cfg.HeadEnergyFactor * nw.cfg.HeartbeatInterval
	return nw.coldOf(n.ID).Energy <= headCost
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
		c := nw.node(cid)
		if c.Candidate && c.CellIL == h.IL && c.CellOIL == h.OIL && c.CellSpiral == h.Spiral {
			continue
		}
		c.Candidate = true
		c.CellIL, c.CellOIL, c.CellSpiral = h.IL, h.OIL, h.Spiral
		nw.touch(cid)
	}

	if nw.lowEnergy(h) && len(candidates) > 0 {
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
		// Shift the cell and hand over the head role.
		nw.metrics.CellShifts++
		nw.emit(trace.KindCellShift, h.ID, radio.None, il)
		h.IL = il
		h.Spiral = idx
		nw.touch(h.ID)
		best, _ := BestCandidate(il, cfg.GR, ca, nw.Position)
		if best != h.ID {
			nw.transferHeadRole(h, nw.node(best))
			nw.metrics.HeadShifts++
		}
		return
	}
	nw.AbandonCell(id)
}

// ilDeviatesTooMuch implements the abandonment trigger: the distance
// between the shifted IL and a living neighbor's IL must stay within
// (0, 2·√3·R) — the bound the GS³-D invariant places on neighboring ILs
// with different ⟨ICC, ICP⟩ — minus the configured slack.
func (nw *Network) ilDeviatesTooMuch(h *Node, il geom.Point) bool {
	limit := 2*nw.cfg.HeadSpacing() - nw.cfg.AbandonSlack
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
	nw.setStatus(repl, StatusHead)
	repl.IL, repl.OIL, repl.Spiral = old.IL, old.OIL, old.Spiral
	repl.Parent, repl.ParentIL, repl.Hops = old.Parent, old.ParentIL, old.Hops
	repl.Children = nw.cloneIDs(old.Children)
	repl.Neighbors = nw.cloneIDs(old.Neighbors)
	repl.Head = radio.None
	repl.Candidate = false
	repl.Children = removeID(repl.Children, repl.ID)
	repl.Neighbors = removeID(repl.Neighbors, repl.ID)
	nw.touch(repl.ID)
	nw.touch(old.ID)

	nw.repointLinks(old.ID, repl.ID)

	if old.IsBig {
		// BIG_SLIDE: the big node cedes headship but stays special; it
		// reclaims the role when the cell's IL returns to it.
		nw.setStatus(old, StatusBigSlide)
		old.Head = repl.ID
		nw.resetHeadState(old)
	} else {
		nw.becomeAssociate(old, repl.ID)
		old.Candidate = nw.Position(old.ID).Dist(repl.IL) <= nw.cfg.Rt
	}
	nw.setStatus(repl, StatusWork)
}

// repointLinks rewrites parent/children/neighbor references from old to
// repl on the surrounding heads and re-homes the old head's associates.
func (nw *Network) repointLinks(old, repl radio.NodeID) {
	for _, id := range nw.SortedIDs() {
		n := nw.node(id)
		if n == nil || id == old || id == repl {
			continue
		}
		changed := false
		if n.Parent == old {
			n.Parent = repl
			if rn := nw.node(repl); rn != nil {
				n.ParentIL = rn.IL
			}
			changed = true
		}
		if containsID(n.Children, old) {
			n.removeChild(old)
			n.Children = nw.addUniqueID(n.Children, repl)
			changed = true
		}
		if containsID(n.Neighbors, old) {
			n.removeNeighbor(old)
			n.Neighbors = nw.addUniqueID(n.Neighbors, repl)
			changed = true
		}
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
		nw.touch(aid)
	}
	if h.IsBig {
		nw.setStatus(h, StatusBigSlide)
		nw.resetHeadState(h)
		nw.touch(id)
		return
	}
	nw.becomeBootup(h)
	nw.touch(id)
}

// associateIntraCell is the maintenance sweep of an associate (and of a
// candidate, which is an associate within Rt of the cell's IL): detect
// head failure and heal it by head shift (candidates) or by re-joining
// (non-candidates); otherwise keep the best head.
func (nw *Network) associateIntraCell(n *Node) {
	head := nw.node(n.Head)
	headOK := head != nil && nw.Alive(n.Head) && (head.Status.IsHeadRole() || head.IsBig) &&
		!nw.med.InBlackout(n.Head) &&
		nw.med.Dist(n.ID, n.Head) <= nw.cfg.SearchRadius()

	if headOK && head.Status.IsHeadRole() {
		// Heartbeat succeeded: re-evaluate candidacy and head choice.
		// Writes are guarded on change so a settled cell stays
		// epoch-quiet sweep after sweep.
		cand := nw.Position(n.ID).Dist(head.IL) <= nw.cfg.Rt
		if cand {
			if !n.Candidate || n.CellIL != head.IL || n.CellOIL != head.OIL || n.CellSpiral != head.Spiral {
				n.Candidate = true
				n.CellIL, n.CellOIL, n.CellSpiral = head.IL, head.OIL, head.Spiral
				nw.touch(n.ID)
			}
		} else if n.Candidate {
			n.Candidate = false
			nw.touch(n.ID)
		}
		nw.ChooseHead(n.ID) // switch if a better head appeared
		return
	}

	// Head failed (or left the head role without telling us).
	if n.Candidate {
		nw.electFromCandidates(n)
		return
	}
	nw.becomeBootup(n)
	nw.touch(n.ID)
	nw.ChooseHead(n.ID)
}

// electFromCandidates implements the candidate coordination after a
// head failure: the candidates of the dead head's cell (identified by
// the cell IL each candidate carries) elect the highest-ranked one as
// the new head, which inherits the cell state the candidates replicate.
func (nw *Network) electFromCandidates(detector *Node) {
	deadHead := detector.Head
	il := detector.CellIL
	candidates := nw.filterQuery(il, nw.cfg.Rt, radio.None, func(c *Node) bool {
		return nw.Alive(c.ID) && c.Status == StatusAssociate && c.Head == deadHead &&
			!nw.med.InBlackout(c.ID)
	})
	best, ok := BestCandidate(il, nw.cfg.GR, candidates, nw.Position)
	if !ok {
		nw.becomeBootup(detector)
		nw.touch(detector.ID)
		nw.ChooseHead(detector.ID)
		return
	}
	repl := nw.node(best)
	nw.setStatus(repl, StatusWork)
	repl.IL, repl.OIL, repl.Spiral = detector.CellIL, detector.CellOIL, detector.CellSpiral
	repl.Parent = radio.None // re-acquired by inter-cell maintenance
	repl.Hops = unknownHops
	repl.Head = radio.None
	repl.Candidate = false
	nw.touch(best)
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
		pos := nw.Position(best)
		repl.Neighbors = repl.Neighbors[:0]
		for _, nid := range nw.reachableHeadsAt(pos, nw.cfg.SearchRadius()) {
			if nid != best {
				repl.Neighbors = nw.appendID(repl.Neighbors, nid)
			}
		}
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
	// every sweep, which makes it self-stabilizing by construction. The
	// query result aliases the network scratch buffer, so it is copied
	// into the node's own (capacity-reused) Neighbors slice — but only
	// when it actually differs, to keep a steady state epoch-quiet.
	pos := nw.Position(h.ID)
	neighbors := nw.reachableHeadsAt(pos, cfg.SearchRadius())
	same := true
	j := 0
	for _, id := range neighbors {
		if id == h.ID {
			continue
		}
		if j >= len(h.Neighbors) || h.Neighbors[j] != id {
			same = false
			break
		}
		j++
	}
	if !same || j != len(h.Neighbors) {
		h.Neighbors = h.Neighbors[:0]
		for _, id := range neighbors {
			if id != h.ID {
				h.Neighbors = nw.appendID(h.Neighbors, id)
			}
		}
		nw.touch(h.ID)
	}

	// Children list hygiene: drop entries that are no longer heads.
	// Backward iteration keeps the in-place removal safe (removeID
	// shifts the tail left, which only re-visits already-kept entries).
	lostChild := false
	for i := len(h.Children) - 1; i >= 0; i-- {
		c := h.Children[i]
		cn := nw.node(c)
		if cn == nil || !nw.Alive(c) || !cn.Status.IsHeadRole() {
			h.removeChild(c)
			lostChild = true
		}
	}
	if lostChild {
		nw.touch(h.ID)
	}

	nw.ParentSeek(h.ID)

	// A lost child's cell gets one heartbeat of grace for its own
	// intra-cell maintenance (head shift) before the parent repairs it
	// with HEAD_ORG — the paper's priority order. The periodic boundary
	// rescan runs unconditionally.
	hc := nw.coldOf(h.ID)
	repairDue := hc.pendingChildRepair
	hc.pendingChildRepair = lostChild
	if repairDue || hc.sweep%uint32(cfg.BoundaryRescanEvery) == 0 {
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
			h.Hops = 0
			h.Parent = id
			h.ParentIL = h.IL
			nw.touch(id)
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
			h.Hops = unknownHops
			nw.touch(id)
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
			h.ParentIL = cp.IL
			h.Hops = cp.Hops + 1
			nw.touch(id)
		}
		return
	}
	old := h.Parent
	h.Parent = bestParent
	h.ParentIL = nw.node(bestParent).IL
	h.Hops = bestHops + 1
	nw.touch(id)
	if old != bestParent {
		if on := nw.node(old); on != nil {
			on.removeChild(id)
			nw.touch(old)
		}
		nw.node(bestParent).Children = nw.addUniqueID(nw.node(bestParent).Children, id)
		nw.touch(bestParent)
		nw.emit(trace.KindParentChange, id, bestParent, h.IL)
	}
}

// isRootHead reports whether h anchors the head graph: the big node
// acting as head, the proxy of a moving big node, or — during a
// BIG_SLIDE — the head of the cell the big node is a member of.
// Without the slide clause the head graph has no distance-0 root while
// the big node's cell IL is away, and ParentSeek counts to infinity.
func (nw *Network) isRootHead(h *Node) bool {
	if h.IsBig {
		return true
	}
	big := nw.node(nw.bigID)
	if big == nil {
		return false
	}
	if big.Status == StatusBigMove && nw.coldOf(nw.bigID).Proxy == h.ID {
		return true
	}
	if big.Status == StatusBigSlide && big.Head == h.ID {
		return true
	}
	return false
}

// RescanAround runs HEAD_ORG at head id over the full circle of six
// neighboring ILs: the boundary-rescan and child-repair duty of
// HEAD_INTER_CELL. Unowned ILs with a non-empty candidate area get a
// head; newly appeared bootup nodes in range re-choose heads.
func (nw *Network) RescanAround(id radio.NodeID) {
	h := nw.node(id)
	if h == nil || !nw.Alive(id) || !h.Status.IsHeadRole() {
		return
	}
	nw.metrics.HeadOrgs++
	nw.emit(trace.KindHeadOrg, id, radio.None, h.IL)
	receivers, _ := nw.med.Broadcast(id, nw.cfg.SearchRadius()+nw.cfg.Rt)

	// Every receiver replies; every small one is a HEAD_SELECT candidate
	// and re-chooses its head afterwards.
	smallNodes := nw.orgAll[:0]
	for _, rid := range receivers {
		rn := nw.node(rid)
		if rn == nil || !nw.Alive(rid) {
			continue
		}
		nw.metrics.ReplyMessages++
		if rn.Status == StatusBootup || rn.Status == StatusAssociate {
			smallNodes = append(smallNodes, rid)
		}
	}
	nw.orgAll = smallNodes

	nw.headSelect(h, nw.sixILs(h), smallNodes)
	nw.associateOrgResp(id, smallNodes)
}

// sixILs returns the six neighboring-cell ILs around h's cell, oriented
// by the direction from the parent's IL (or GR at the root) — the full
// local view of the cell lattice.
func (nw *Network) sixILs(h *Node) []geom.Point {
	base := nw.cfg.GR
	if ref := h.IL.Sub(h.ParentIL); ref.Len() > 0 {
		base = ref.Angle()
	}
	out := nw.ilBuf[:6]
	for j := 0; j < 6; j++ {
		out[j] = h.IL.Add(geom.UnitAt(base + float64(j)*math.Pi/3).Scale(nw.cfg.HeadSpacing()))
	}
	return out
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
		nw.touch(aid)
	}
	nw.becomeBootup(h)
	nw.touch(id)
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
// node's ID.
func (nw *Network) Join(p geom.Point) radio.NodeID {
	id, _ := nw.AddNode(p, false)
	nw.metrics.Joins++
	nw.emit(trace.KindJoin, id, radio.None, p)
	nw.ChooseHead(id)
	if nw.maintaining {
		nw.scheduleSweep(id, nw.cfg.HeartbeatInterval*float64(int(id)%17)/17)
	}
	return id
}
