package core

import (
	"fmt"

	"gs3/internal/trace"

	"gs3/internal/fault"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/sim"
)

// Metrics counts protocol-level actions and messages. Radio-level
// traffic (broadcasts, deliveries) is counted by the medium itself.
type Metrics struct {
	HeadOrgs       uint64 // HEAD_ORG executions
	HeadsSelected  uint64 // nodes promoted to head by HEAD_SELECT
	ReplyMessages  uint64 // org_reply / head_org_reply unicasts
	HeadShifts     uint64 // intra-cell head replacements
	CellShifts     uint64 // STRENGTHEN_CELL IL advances
	Abandonments   uint64 // cells abandoned
	SanityRetreats uint64 // heads retreating after failed sanity check
	ParentSeeks    uint64 // PARENT_SEEK executions
	Joins          uint64 // nodes that joined a configured network
	Promotions     uint64 // candidate promotions on head failure
}

// Network is the simulated GS³ network: the medium, the event engine,
// and all node state. All protocol actions are methods on Network and
// execute atomically with respect to one another.
type Network struct {
	cfg Config
	med *radio.Medium
	eng *sim.Engine

	// The struct-of-arrays node store (see store.go): hot protocol
	// state inline in nodes, cold per-node state in the parallel cold
	// slice, lazily allocated sweep records in records, and the chunk
	// arena feeding Children/Neighbors lists.
	nodes   []Node
	cold    []nodeCold
	records []sweepRecord
	arena   idArena
	nextID  radio.NodeID

	metrics Metrics

	// bigID is the big node (always 0 by construction).
	bigID radio.NodeID

	// maintaining gates the GS³-D/GS³-M sweep loop; variant selects the
	// algorithm layer the sweeps run.
	maintaining bool
	variant     Variant

	// sortedIDs caches the ascending ID list served by SortedIDs; nil
	// means stale. The ID set only grows (AddNode); Kill marks nodes
	// dead but keeps them listed.
	sortedIDs []radio.NodeID

	// queryBuf is the reusable scratch buffer behind headRoleAt,
	// Associates, Candidates, and the other medium-query filters: their
	// results alias it, so steady-state membership queries allocate
	// nothing. See those methods for the aliasing contract.
	queryBuf []radio.NodeID

	// caBuf is the scratch behind caOf. It is separate from queryBuf
	// because HEAD_ORG evaluates CA(il) while holding headRoleAt
	// results for the same IL loop iteration.
	caBuf []radio.NodeID

	// ilBuf backs the neighboring ILs of a HEAD_ORG round (ilRing),
	// audience its broadcasts' audience (orgAudience), and
	// orgSmall and orgAll its receiver-partition scratch (small nodes
	// eligible for promotion; all small receivers). All four live
	// across the whole HEAD_ORG or rescan — including its nested
	// queries and head choices — so they are separate from the query
	// scratches above. gather, near and heard back the
	// ASSOCIATE_ORG_RESP fan-out (gatherHeads, headsHeard).
	ilBuf    [6]geom.Point
	audience []radio.NodeID
	orgSmall []radio.NodeID
	orgAll   []radio.NodeID
	gather   []gatheredHead
	near     []heardHead
	heard    []radio.NodeID

	// faults, when set, injects radio unreliability and node blackouts
	// (see internal/fault); nil runs the reliable model unchanged.
	faults *fault.Injector

	// tracer, when set, records protocol events.
	tracer *trace.Log

	// cacheOn gates the quiescent-sweep fast path (SetSweepCache). The
	// cache additionally disables itself whenever the fault layer is
	// active: it consumes randomness per query, and eliding work would
	// shift the draw order.
	cacheOn bool

	// batches maps a sweep fire time to the open batch of node IDs due
	// then: one engine event per run of consecutively scheduled sweeps
	// instead of one per node. A batch is sealed — later sweeps for the
	// same time open a fresh batch — as soon as any other event is
	// scheduled, so the relative order of sweeps and non-sweep events at
	// a shared instant is exactly the per-event order (see
	// scheduleSweep). lastBatch is the most recently opened batch, the
	// one a draining batch's reschedules land in, checked before the
	// map. batchFree recycles drained batches.
	batches     map[sim.Time]*sweepBatch
	lastBatch   *sweepBatch
	batchFree   []*sweepBatch
	batchEvents uint64

	// batchByID indexes every batch ever made by its id, the payload of
	// its sweep event.
	batchByID []*sweepBatch

	// The network's engine event kinds (see registerKinds).
	kinds struct {
		headOrg, orgRetry, sweep, restore, energyDeath sim.Kind
	}

	// sweepBodies and sweepReplays count the maintenance sweeps that
	// ran their full body and those the quiescence cache replayed, and
	// choices the ASSOCIATE_ORG_RESP choices associateOrgResp ran rather
	// than skipped (SweepWork).
	sweepBodies  uint64
	sweepReplays uint64
	choices      uint64

	// deltas interns the quiescent-sweep deltas the caches index and
	// counts the replays not yet credited (see creditReplays).
	deltas deltaTable
}

// sweepBatch collects nodes whose maintenance sweeps were scheduled
// back-to-back for fire time at; runSweepBatch executes them in append
// (= per-event scheduling) order. seqMark/evMark are the engine's
// Scheduled reading and the network's batch-creation count right after
// the batch's own event went in: an append is only legal while every
// scheduling since has been another batch's creation — a batch for a
// different fire time cannot interleave at this one's instant, but any
// other event might, and seals the batch. id is the batch's index in
// batchByID, the payload of its sweep event.
type sweepBatch struct {
	ids     []radio.NodeID
	at      sim.Time
	seqMark uint64
	evMark  uint64
	id      int32
}

// NewNetwork creates an empty network. The big node must be added first
// via AddNode with big=true.
func NewNetwork(cfg Config, radioParams radio.Params) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if radioParams.CellSize == 0 {
		radioParams.CellSize = cfg.SearchRadius()
	}
	med, err := radio.NewMedium(radioParams)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		cfg:     cfg,
		med:     med,
		eng:     sim.NewEngine(),
		bigID:   radio.None,
		cacheOn: true,
		batches: make(map[sim.Time]*sweepBatch),
	}
	nw.registerKinds()
	return nw, nil
}

// registerKinds registers the network's event kinds on its engine. Each
// payload names what the event acts on: a node ID, or a sweep batch's
// id. An org retry packs the head's ID and the attempt (1..orgRetries)
// into one payload.
func (nw *Network) registerKinds() {
	k, eng := &nw.kinds, nw.eng
	k.headOrg = eng.Register(func(id int32) { nw.HeadOrg(radio.NodeID(id)) })
	k.orgRetry = eng.Register(func(p int32) {
		nw.orgRetry(radio.NodeID(p/(orgRetries+1)), int(p%(orgRetries+1)))
	})
	k.sweep = eng.Register(func(b int32) { nw.runSweepBatch(nw.batchByID[b]) })
	k.restore = eng.Register(func(id int32) { nw.restoreFromBlackout(radio.NodeID(id)) })
	k.energyDeath = eng.Register(func(id int32) { nw.energyDeath(radio.NodeID(id)) })
}

// AddNode places a new node at p and returns its ID. The first big node
// becomes the network's big node; adding a second big node, or a node at
// a position that is not finite, is an error. Growing the store may
// relocate it: any *Node held across an AddNode is invalid (see
// store.go).
func (nw *Network) AddNode(p geom.Point, big bool) (radio.NodeID, error) {
	if !p.Finite() {
		return radio.None, fmt.Errorf("core: node position %v is not finite", p)
	}
	if big && nw.bigID != radio.None {
		return radio.None, fmt.Errorf("core: network already has big node %d", nw.bigID)
	}
	id := nw.nextID
	nw.nextID++
	nw.nodes = append(nw.nodes, Node{
		ID:     id,
		IsBig:  big,
		Status: StatusBootup,
		Parent: radio.None,
		Head:   radio.None,
	})
	nw.cold = append(nw.cold, nodeCold{
		Proxy:  radio.None,
		Energy: nw.cfg.InitialEnergy,
	})
	nw.med.Place(id, p)
	if big {
		nw.bigID = id
	}
	return id, nil
}

// Config returns the protocol parameters.
func (nw *Network) Config() Config { return nw.cfg }

// Engine returns the event engine driving the network.
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Medium returns the radio medium.
func (nw *Network) Medium() *radio.Medium { return nw.med }

// Metrics returns a copy of the protocol action counters.
func (nw *Network) Metrics() Metrics { return nw.metrics }

// SweepWork returns how many maintenance sweeps ran their full body
// and how many the quiescence cache replayed instead, and how many
// ASSOCIATE_ORG_RESP choices HEAD_ORGs and rescans ran in full rather
// than skipped as unchanged. It counts work executed, where Stats and
// Metrics count work credited: a replay adds its recorded range queries
// and messages to those, but runs none.
func (nw *Network) SweepWork() (bodies, replays, choices uint64) {
	return nw.sweepBodies, nw.sweepReplays, nw.choices
}

// counters lists every field of m once, in declaration order. The
// counter operations (sub, addMetrics) loop over it, so a field added to
// Metrics must be added here, where a test checks the list against the
// declaration.
func (m *Metrics) counters() [10]*uint64 {
	return [...]*uint64{
		&m.HeadOrgs, &m.HeadsSelected, &m.ReplyMessages, &m.HeadShifts,
		&m.CellShifts, &m.Abandonments, &m.SanityRetreats, &m.ParentSeeks,
		&m.Joins, &m.Promotions,
	}
}

// sub returns the counter delta m−prev (field-wise).
func (m Metrics) sub(prev Metrics) Metrics {
	mc, pc := m.counters(), prev.counters()
	for i := range mc {
		*mc[i] -= *pc[i]
	}
	return m
}

// addMetrics credits k×d onto the live counters: the metrics side of
// replaying k elided sweeps that each recorded delta d.
func (nw *Network) addMetrics(d Metrics, k uint64) {
	mc, dc := nw.metrics.counters(), d.counters()
	for i := range mc {
		*mc[i] += k * *dc[i]
	}
}

// SetSweepCache enables or disables the quiescent-sweep fast path.
// With the cache off every sweep re-derives its queries from scratch —
// the brute-force reference the property tests compare against. The
// results are identical either way; only the work differs.
func (nw *Network) SetSweepCache(on bool) { nw.cacheOn = on }

// cacheable reports whether sweep results may be cached at all. Any
// active fault plan (loss, duplication, jitter, blackouts) consumes
// randomness inside the swept queries, and eliding those would shift
// every later draw — so chaos runs always take the full path. Per-send
// energy costs also force the full path: an elided broadcast drains no
// battery, so eliding would change when nodes die.
func (nw *Network) cacheable() bool {
	return nw.cacheOn && !nw.faults.Active() && !nw.sendCostsActive()
}

// sendCostsActive reports whether the per-transmission half of the
// energy model is on: a battery to drain and a non-zero cost to charge.
func (nw *Network) sendCostsActive() bool {
	return nw.cfg.InitialEnergy > 0 && (nw.cfg.BroadcastCost > 0 || nw.cfg.UnicastCost > 0)
}

// touch records a protocol-state change at node id in the medium's
// topology epochs, in both views, invalidating every sweep cache whose
// query cone covers the node. Changes to the big node's state are
// visible to the root test of every head regardless of distance, so
// they invalidate globally. A change to the node's links goes through
// touchLinks instead (links.go).
func (nw *Network) touch(id radio.NodeID) {
	if id == nw.bigID {
		nw.med.TouchAll()
		return
	}
	nw.med.Touch(id)
}

// worldEpoch returns the global topology epoch in the view a sweep
// cache watches: the full view for a head, whose sweep reads other
// heads' links, and the associate view, which no link write moves, for
// an associate or a bootup node, whose sweep reads none.
func (nw *Network) worldEpoch(isHead bool) uint64 {
	if isHead {
		return nw.med.Epoch()
	}
	return nw.med.AssocEpoch()
}

// coneEpoch returns the maximum topology epoch over node id's query
// cone, in the view worldEpoch names.
func (nw *Network) coneEpoch(id radio.NodeID, isHead bool) uint64 {
	full, assoc := nw.med.RegionEpoch(nw.Position(id), nw.coneRadius(isHead))
	if isHead {
		return full
	}
	return assoc
}

// coneRadius bounds how far a node's sweep reads: an associate hears
// heads within the search radius; a head's boundary rescan additionally
// lets every small receiver (≤ SearchRadius+Rt away) re-choose among
// heads within SearchRadius of *it*, so the head's cone is 2·SR+Rt.
func (nw *Network) coneRadius(isHead bool) float64 {
	sr := nw.cfg.SearchRadius()
	if isHead {
		return 2*sr + nw.cfg.Rt
	}
	return sr
}

// SetFaults installs (or, with nil, removes) a deterministic fault
// injector on the network and its medium. With faults installed,
// broadcasts lose/duplicate deliveries, delays jitter, small nodes
// suffer transient blackouts during maintenance, and heads arm
// timeout/retry timers after HEAD_ORG. A nil injector restores the
// reliable model bit-for-bit.
func (nw *Network) SetFaults(inj *fault.Injector) {
	nw.faults = inj
	nw.med.SetFaults(inj)
}

// jittered applies the fault injector's delay jitter to a scheduling
// delay; it is the identity when faults are off.
func (nw *Network) jittered(d float64) float64 {
	return nw.faults.JitterDelay(d)
}

// Reachable reports whether id is alive and currently able to exchange
// messages — i.e. not transiently blacked out by the fault layer.
func (nw *Network) Reachable(id radio.NodeID) bool {
	return nw.Alive(id) && !nw.med.InBlackout(id)
}

// BigID returns the big node's ID, or radio.None if absent.
func (nw *Network) BigID() radio.NodeID { return nw.bigID }

// RootHead returns the head the parent tree currently drains to (see
// rootOf), or radio.None when the big node is absent. Snapshot.Root
// applies the same rule to a snapshot.
func (nw *Network) RootHead() radio.NodeID {
	big := nw.node(nw.bigID)
	if big == nil {
		return radio.None
	}
	return rootOf(nw.bigID, big.Status, big.Head, nw.coldOf(nw.bigID).Proxy)
}

// rootOf is the one rule naming the head the parent tree drains to,
// from the big node's ID, status, cell head and proxy: the big node
// itself while it holds the head role; during a BIG_SLIDE, the head of
// the cell the big node is a member of; during a BIG_MOVE, its proxy.
// In any other state the tree has no root and rootOf is radio.None.
func rootOf(big radio.NodeID, st Status, head, proxy radio.NodeID) radio.NodeID {
	switch {
	case st.IsHeadRole():
		return big
	case st == StatusBigSlide:
		return head
	case st == StatusBigMove:
		return proxy
	}
	return radio.None
}

// Node returns the node with the given ID, or nil. The pointer is into
// the dense store: it is invalidated by the next AddNode/Join.
func (nw *Network) Node(id radio.NodeID) *Node {
	return nw.node(id)
}

// Position returns a node's current position. It returns the zero point
// for nodes no longer on the medium.
func (nw *Network) Position(id radio.NodeID) geom.Point {
	p, _ := nw.med.Position(id)
	return p
}

// Alive reports whether the node exists and is on the medium. Kill, the
// one writer of StatusDead, takes the node off the medium in the same
// call, so a node is alive exactly when its Status is not StatusDead.
func (nw *Network) Alive(id radio.NodeID) bool {
	return nw.med.Alive(id)
}

// SortedIDs returns all node IDs (including dead ones) in ascending
// order; deterministic iteration order for sweeps and snapshots. IDs
// are dense, so this is simply 0..N-1. The returned slice is a cache
// owned by the network: callers must not modify it, and it is valid
// until the next AddNode/Join.
func (nw *Network) SortedIDs() []radio.NodeID {
	if len(nw.sortedIDs) != len(nw.nodes) {
		ids := nw.sortedIDs[:0]
		if cap(ids) < len(nw.nodes) {
			ids = make([]radio.NodeID, 0, len(nw.nodes))
		}
		for id := range len(nw.nodes) {
			ids = append(ids, radio.NodeID(id))
		}
		nw.sortedIDs = ids
	}
	return nw.sortedIDs
}

// filterQuery runs a range query into the network's scratch buffer and
// keeps, in place, only the IDs that satisfy keep. The result aliases
// queryBuf: it is valid until the next filterQuery-backed call, and
// callers that retain it (e.g. into node state) must copy it out. None
// of the keep predicates below touch the medium, so a result is never
// clobbered while it is being built.
func (nw *Network) filterQuery(p geom.Point, dist float64, exclude radio.NodeID, keep func(*Node) bool) []radio.NodeID {
	nw.queryBuf = nw.med.WithinRangeAppend(nw.queryBuf[:0], p, dist, exclude)
	out := nw.queryBuf[:0]
	for _, id := range nw.queryBuf {
		if n := nw.node(id); n != nil && keep(n) {
			out = append(out, id)
		}
	}
	return out
}

// headRoleAt returns the alive head-role nodes within dist of p,
// served by the medium's head index (setStatus keeps it exactly in
// sync with Status.IsHeadRole, and death removes nodes from the
// medium), so the cost scales with the number of heads near p rather
// than the number of nodes. The result aliases the network's scratch
// buffer: valid until the next filterQuery-backed or head query.
func (nw *Network) headRoleAt(p geom.Point, dist float64) []radio.NodeID {
	nw.queryBuf = nw.med.HeadsWithinRangeAppend(nw.queryBuf[:0], p, dist, radio.None)
	return nw.queryBuf
}

// reachableHeadsAt returns the alive head-role nodes within dist of p
// that a small node could actually hear — blacked-out heads are
// excluded. Structure-consistency queries (ilOwner, ilConflicts) keep
// using headRoleAt so a transiently crashed head still owns its cell.
// The result aliases the network's scratch buffer (see headRoleAt).
func (nw *Network) reachableHeadsAt(p geom.Point, dist float64) []radio.NodeID {
	nw.queryBuf = nw.med.HeadsWithinRangeAppend(nw.queryBuf[:0], p, dist, radio.None)
	out := nw.queryBuf[:0]
	for _, id := range nw.queryBuf {
		if !nw.med.InBlackout(id) {
			out = append(out, id)
		}
	}
	return out
}

// Associates returns the alive associates of head h (nodes whose Head
// field names h), found by a local range query around h's cell.
// The result aliases the network's scratch buffer (see filterQuery).
func (nw *Network) Associates(h radio.NodeID) []radio.NodeID {
	hn := nw.node(h)
	if hn == nil {
		return nil
	}
	// Members can be up to √3R+2Rt from the IL in perturbed cells.
	return nw.filterQuery(hn.IL, nw.cfg.SearchRadius(), h, func(n *Node) bool {
		return n.Status == StatusAssociate && n.Head == h
	})
}

// Candidates returns the alive associates of h within Rt of h's current
// IL — the head-candidate set of §4.1. Blacked-out associates are
// excluded: they can neither refresh their replica nor take the role.
// The result aliases the network's scratch buffer (see filterQuery).
func (nw *Network) Candidates(h radio.NodeID) []radio.NodeID {
	hn := nw.node(h)
	if hn == nil {
		return nil
	}
	return nw.filterQuery(hn.IL, nw.cfg.Rt, h, func(n *Node) bool {
		return n.Status == StatusAssociate && n.Head == h && !nw.med.InBlackout(n.ID)
	})
}

// Kill removes a node from the network abruptly (fail-stop / death).
// Healing is left to the maintenance actions of the surviving nodes.
func (nw *Network) Kill(id radio.NodeID) {
	if !nw.Alive(id) {
		return
	}
	// Dead nodes stay listed by SortedIDs (the store keeps their slot),
	// and the medium removal below clears the head-role index entry, so
	// a plain status write suffices here.
	nw.node(id).Status = StatusDead
	nw.emit(trace.KindDeath, id, radio.None, nw.Position(id))
	nw.med.Remove(id)
}

// Move changes a node's position (GS³-M perturbation). The protocol
// reacts through the maintenance sweeps. A dead node stays dead, and a
// position that is not finite leaves the node where it is.
func (nw *Network) Move(id radio.NodeID, p geom.Point) {
	if nw.Alive(id) && p.Finite() {
		nw.med.Place(id, p)
	}
}
