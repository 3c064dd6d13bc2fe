package core

import (
	"math"
	"testing"

	"gs3/internal/geom"
	"gs3/internal/radio"
)

// runSweeps advances the network by n heartbeat intervals of virtual
// time, letting the scheduled maintenance sweeps fire.
func runSweeps(nw *Network, n int) {
	deadline := nw.Engine().Now() + nw.cfg.HeartbeatInterval*float64(n)
	nw.Engine().RunUntil(deadline)
}

// configureDynamic builds a configured network with maintenance running.
func configureDynamic(t *testing.T, regionRadius float64) (*Network, Config) {
	t.Helper()
	nw, cfg := configureGridFresh(t, 100, regionRadius)
	nw.StartMaintenance(VariantD)
	return nw, cfg
}

// someSmallHead returns a non-big head at least margin inside the
// region boundary.
func someSmallHead(t *testing.T, nw *Network, regionRadius, margin float64) NodeView {
	t.Helper()
	for _, h := range nw.Snapshot().Heads() {
		if !h.IsBig && h.Pos.Dist(geom.Point{}) < regionRadius-margin {
			return h
		}
	}
	t.Fatal("no inner small head found")
	return NodeView{}
}

func TestHeadShiftMasksHeadDeath(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	victim := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	members := nw.Snapshot().Members(victim.ID)
	if len(members) == 0 {
		t.Fatal("victim has no associates")
	}

	nw.Kill(victim.ID)
	runSweeps(nw, 4)

	// A new head must exist near the victim's IL, and the cell's
	// members must be re-attached to it.
	snap := nw.Snapshot()
	var newHead radio.NodeID = radio.None
	for _, h := range snap.Heads() {
		if h.IL.Dist(victim.IL) < cfg.Rt && h.ID != victim.ID {
			newHead = h.ID
		}
	}
	if newHead == radio.None {
		t.Fatal("no replacement head near the dead head's IL")
	}
	if nw.Metrics().Promotions == 0 {
		t.Error("promotion not counted")
	}
	reattached := 0
	for _, m := range members {
		if v, ok := snap.View(m); ok && (v.Head == newHead || v.ID == newHead) {
			reattached++
		}
	}
	if reattached < len(members)/2 {
		t.Errorf("only %d/%d members re-attached", reattached, len(members))
	}
}

func TestHeadDeathPreservesStructureElsewhere(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	victim := someSmallHead(t, nw, 400, cfg.HeadSpacing())

	// Record heads far from the victim.
	before := map[radio.NodeID]geom.Point{}
	for _, h := range nw.Snapshot().Heads() {
		if h.Pos.Dist(victim.Pos) > cfg.SearchRadius() {
			before[h.ID] = h.IL
		}
	}

	nw.Kill(victim.ID)
	runSweeps(nw, 6)

	// Locality: distant cells are untouched (§4.3.5.1 item 2).
	snap := nw.Snapshot()
	for id, il := range before {
		v, ok := snap.View(id)
		if !ok || !v.IsHead() {
			t.Errorf("distant head %d lost its role", id)
			continue
		}
		if v.IL.Dist(il) > 1e-9 {
			t.Errorf("distant head %d IL moved", id)
		}
	}
}

func TestCellShiftWhenCandidatesDie(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())

	// Kill every node within Rt of the IL except the head itself: the
	// candidate set is now empty, so the head's next intra-cell sweep
	// must shift the cell's IL to a populated candidate area.
	for _, id := range nw.Medium().WithinRangeAppend(nil, h.IL, cfg.Rt, h.ID) {
		nw.Kill(id)
	}
	runSweeps(nw, 4)

	snap := nw.Snapshot()
	var shifted *NodeView
	for i := range snap.Nodes {
		v := snap.Nodes[i]
		if v.IsHead() && v.OIL.Dist(h.OIL) < cfg.Rt {
			shifted = &snap.Nodes[i]
		}
	}
	if shifted == nil {
		t.Fatal("cell did not survive by shifting")
	}
	if shifted.Spiral == h.Spiral {
		t.Errorf("cell did not shift: spiral still %+v", shifted.Spiral)
	}
	if shifted.IL.Dist(shifted.OIL) > cfg.R+1e-9 {
		t.Error("shifted IL left the cell coverage")
	}
	if nw.Metrics().CellShifts == 0 {
		t.Error("cell shift not counted")
	}
}

func TestHeadAndCandidateDiskDeathHealsViaNeighbors(t *testing.T) {
	// When the head AND the whole Rt-disk around the IL die at once,
	// the cell state is lost; the paper heals this like abandonment —
	// members join neighboring cells — and the area is re-covered later
	// by boundary rescans.
	nw, cfg := configureDynamic(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	members := nw.Snapshot().Members(h.ID)
	for _, id := range nw.Medium().WithinRangeAppend(nil, h.IL, cfg.Rt, radio.None) {
		nw.Kill(id)
	}
	nw.Kill(h.ID)
	runSweeps(nw, 3*cfg.BoundaryRescanEvery)

	snap := nw.Snapshot()
	for _, m := range members {
		v, ok := snap.View(m)
		if !ok {
			continue // killed above
		}
		if v.Status != StatusAssociate && !v.IsHead() {
			t.Errorf("orphaned member %d stuck at %v", m, v.Status)
		}
	}
}

func TestStrengthenCellAdvancesSpiral(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())

	// Empty the candidate area around the current IL (but not the
	// head itself), then force a strengthen.
	for _, id := range nw.Medium().WithinRangeAppend(nil, h.IL, cfg.Rt, h.ID) {
		nw.Kill(id)
	}
	nw.StrengthenCell(h.ID)

	hv := nw.Node(h.ID)
	// Either the head handed over to a node at the shifted IL (then the
	// cell state lives elsewhere), or it advanced its own spiral.
	snap := nw.Snapshot()
	found := false
	for _, v := range snap.Heads() {
		if v.OIL.Dist(h.OIL) < 1e-9 && v.Spiral != h.Spiral {
			found = true
			if v.IL.Dist(v.OIL) > cfg.R+1e-9 {
				t.Errorf("shifted IL left the cell coverage: %v", v.IL.Dist(v.OIL))
			}
		}
	}
	if !found {
		t.Errorf("spiral did not advance (head now %+v)", hv.Spiral)
	}
}

func TestAbandonCellWhenEmpty(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())

	// Kill everything in the cell's coverage except the head: no IL can
	// be strengthened, so the cell must be abandoned.
	for _, id := range nw.Medium().WithinRangeAppend(nil, h.OIL, cfg.R+cfg.Rt, h.ID) {
		if !nw.Node(id).IsBig {
			nw.Kill(id)
		}
	}
	nw.StrengthenCell(h.ID)

	if nw.Metrics().Abandonments == 0 {
		t.Fatal("cell not abandoned")
	}
	if nw.Node(h.ID).Status != StatusBootup {
		t.Errorf("abandoning head status = %v, want bootup", nw.Node(h.ID).Status)
	}

	// The former head either joins a neighboring cell or — being the
	// only node left in the area — is re-selected as the head of a
	// singleton cell by a neighbor's rescan (coverage requires it).
	runSweeps(nw, 4)
	if st := nw.Node(h.ID).Status; st != StatusAssociate && !st.IsHeadRole() {
		t.Errorf("abandoned head ended as %v", st)
	}
}

func TestJoinAttachesToBestHead(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	p := h.Pos.Add(geom.Vec{X: cfg.Rt / 2, Y: 0})
	id := nw.Join(p)
	v := nw.Node(id)
	if v.Status != StatusAssociate {
		t.Fatalf("joined node status = %v", v.Status)
	}
	// Must have chosen the closest head.
	chosen := nw.Medium().Dist(id, v.Head)
	for _, other := range nw.Snapshot().Heads() {
		if d := p.Dist(other.Pos); d < chosen-1e-9 {
			t.Errorf("closer head %d at %v exists (chose %v)", other.ID, d, chosen)
		}
	}
	if nw.Metrics().Joins != 1 {
		t.Error("join not counted")
	}
}

func TestJoinOutsideCoverageStaysBootup(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	id := nw.Join(geom.Point{X: 400 + 3*cfg.SearchRadius(), Y: 0})
	if nw.Node(id).Status != StatusBootup {
		t.Errorf("stranded join status = %v", nw.Node(id).Status)
	}
}

func TestBoundaryRescanAbsorbsNewPopulation(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	// Populate a fresh patch just outside the current coverage and let
	// the boundary heads discover it (HEAD_INTER_CELL duty vi).
	base := geom.Point{X: 400 + cfg.R, Y: 0}
	ids := make([]radio.NodeID, 0, 60)
	for i := 0; i < 60; i++ {
		dx := float64(i%8) * cfg.Rt * 0.6
		dy := float64(i/8) * cfg.Rt * 0.6
		ids = append(ids, nw.Join(base.Add(geom.Vec{X: dx, Y: dy})))
	}
	runSweeps(nw, 3*cfg.BoundaryRescanEvery)

	attached := 0
	for _, id := range ids {
		if st := nw.Node(id).Status; st == StatusAssociate || st.IsHeadRole() {
			attached++
		}
	}
	if attached < len(ids)*3/4 {
		t.Errorf("only %d/%d new nodes absorbed", attached, len(ids))
	}
}

func TestSanityCheckHealsCorruptedIL(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	victim := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	nw.Corrupt(victim.ID, CorruptIL, 3*cfg.Rt)
	runSweeps(nw, 3*SanityCheckEvery)

	if nw.Metrics().SanityRetreats == 0 {
		t.Fatal("sanity check never fired")
	}
	// The corrupt head must have retreated, and a replacement must
	// serve its old cell.
	v := nw.Node(victim.ID)
	if v.Status.IsHeadRole() && nw.Position(victim.ID).Dist(v.IL) > cfg.Rt {
		t.Errorf("victim still heads with corrupt IL")
	}
	found := false
	for _, h := range nw.Snapshot().Heads() {
		if h.IL.Dist(victim.OIL) <= cfg.Rt+1e-9 {
			found = true
		}
	}
	if !found {
		t.Error("no head serving the corrupted cell after healing")
	}
}

func TestSanityCheckValidHeadUntouched(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	if !nw.SanityCheck(h.ID) {
		t.Error("valid head failed sanity check")
	}
	if nw.Node(h.ID).Status != StatusWork {
		t.Error("valid head was demoted")
	}
	_ = cfg
}

func TestCorruptStatusHealed(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	// Pick an inner associate and corrupt it into a fake head.
	var victim radio.NodeID = radio.None
	for _, v := range nw.Snapshot().Nodes {
		if v.Status == StatusAssociate && v.Pos.Dist(geom.Point{}) < 400-2*cfg.HeadSpacing() {
			victim = v.ID
			break
		}
	}
	if victim == radio.None {
		t.Fatal("no inner associate")
	}
	nw.Corrupt(victim, CorruptStatus, 0)
	if !nw.Node(victim).Status.IsHeadRole() {
		t.Fatal("corruption did not take")
	}
	runSweeps(nw, 4*SanityCheckEvery)
	if nw.Node(victim).Status.IsHeadRole() {
		t.Error("fake head survived sanity checking")
	}
}

func TestCorruptHopsHealedByParentSeek(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	victim := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	nw.Corrupt(victim.ID, CorruptHops, 9999)
	runSweeps(nw, 6)
	if got := nw.Node(victim.ID).Hops; got >= 9999 {
		t.Errorf("hops still corrupt: %d", got)
	}
	_ = cfg
}

// TestCorruptHopsSaturates pins CorruptHops' float-to-int32 conversion:
// a NaN delta leaves the hop count unchanged, and any other delta is
// saturated into [0, unknownHops] first, so no delta reaches a
// conversion whose result the Go spec leaves to the architecture.
func TestCorruptHopsSaturates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta float64
		want  int32 // -1: unchanged
	}{
		{"NaN", math.NaN(), -1},
		{"+Inf", math.Inf(1), unknownHops},
		{"-Inf", math.Inf(-1), 0},
		{"1e10", 1e10, unknownHops},
		{"-1e10", -1e10, 0},
		{"9999", 9999, 9999},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, cfg := configureDynamic(t, 400)
			victim := someSmallHead(t, nw, 400, cfg.HeadSpacing())
			want := tc.want
			if want < 0 {
				want = nw.Node(victim.ID).Hops
			}
			nw.Corrupt(victim.ID, CorruptHops, tc.delta)
			if got := nw.Node(victim.ID).Hops; got != want {
				t.Errorf("Corrupt(CorruptHops, %v): hops %d, want %d", tc.delta, got, want)
			}
		})
	}
}

func TestParentSeekPicksMinHops(t *testing.T) {
	nw, _ := configureDynamic(t, 400)
	runSweeps(nw, 5)
	snap := nw.Snapshot()
	views := map[radio.NodeID]NodeView{}
	for _, v := range snap.Nodes {
		views[v.ID] = v
	}
	for _, h := range snap.Heads() {
		if h.IsBig {
			continue
		}
		p, ok := views[h.Parent]
		if !ok || !p.IsHead() {
			t.Errorf("head %d has invalid parent %d", h.ID, h.Parent)
			continue
		}
		if h.Hops != p.Hops+1 {
			t.Errorf("head %d hops %d, parent %d hops %d", h.ID, h.Hops, p.ID, p.Hops)
		}
		// No neighbor has strictly fewer hops than the chosen parent.
		for _, nid := range h.Neighbors {
			if nv, ok := views[nid]; ok && nv.IsHead() && nv.Hops < p.Hops {
				t.Errorf("head %d parent hops %d but neighbor %d has %d", h.ID, p.Hops, nid, nv.Hops)
			}
		}
	}
}

func TestEnergyDrainKillsAndStructureSurvives(t *testing.T) {
	nw, cfg := configureGridFresh(t, 100, 350)
	// Enable the energy model post-hoc by reconfiguring nodes: heads
	// dissipate 5× faster, so head shift must rotate the role.
	nw.cfg.InitialEnergy = 60
	nw.cfg.AssociateDissipation = 1
	nw.cfg.HeadEnergyFactor = 5
	for _, id := range nw.SortedIDs() {
		nw.coldOf(id).Energy = 60
	}
	headCount := len(nw.Snapshot().Heads())
	nw.StartMaintenance(VariantD)
	runSweeps(nw, 25)

	// Some nodes must have died, yet the structure persists: heads
	// still cover the region.
	snap := nw.Snapshot()
	if len(snap.Nodes) == 0 {
		t.Fatal("everyone died")
	}
	alive := len(snap.Heads())
	if alive < headCount/2 {
		t.Errorf("structure collapsed: %d heads of %d", alive, headCount)
	}
	if nw.Metrics().HeadShifts == 0 {
		t.Error("no head shifts under energy pressure")
	}
	_ = cfg
}

func TestTransferHeadRoleMovesLinks(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	cands := nw.Candidates(h.ID)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	repl := cands[0]
	old := nw.Node(h.ID)
	parentBefore := old.Parent
	childrenBefore := append([]radio.NodeID(nil), old.Children...)

	nw.transferHeadRole(old, nw.Node(repl))

	rn := nw.Node(repl)
	if !rn.Status.IsHeadRole() {
		t.Fatal("replacement not a head")
	}
	if rn.Parent != parentBefore {
		t.Errorf("parent not inherited: %d vs %d", rn.Parent, parentBefore)
	}
	for _, c := range childrenBefore {
		if nw.Node(c).Parent != repl {
			t.Errorf("child %d not re-pointed", c)
		}
	}
	if old.Status != StatusAssociate || old.Head != repl {
		t.Errorf("old head state: %v head=%d", old.Status, old.Head)
	}
	if pn := nw.Node(parentBefore); pn != nil && parentBefore != h.ID {
		if containsID(pn.Children, h.ID) || !containsID(pn.Children, repl) {
			t.Error("parent's children list not re-pointed")
		}
	}
}

func TestSweepStopsAfterStopMaintenance(t *testing.T) {
	nw, _ := configureDynamic(t, 300)
	runSweeps(nw, 2)
	stopDrains(t, nw, "stop")
}

func TestStartMaintenanceIdempotent(t *testing.T) {
	nw, _ := configureGridFresh(t, 100, 300)
	nw.StartMaintenance(VariantD)
	pending := nw.Engine().Pending()
	nw.StartMaintenance(VariantD) // second call must not double the timers
	if nw.Engine().Pending() > pending {
		t.Error("maintenance timers duplicated")
	}
}

func TestVariantSMaintenanceIsNoop(t *testing.T) {
	nw, _ := configureGridFresh(t, 100, 300)
	nw.StartMaintenance(VariantS)
	if nw.Engine().Pending() != 0 {
		t.Error("VariantS scheduled sweeps")
	}
}

// TestRetiredHeadElectsAfterNewHeadDies hands every head that has
// candidates over to its best one (head_retreat), kills the new head
// before it sweeps, and runs the retired head's intra-cell maintenance.
// The retired head stays in the cell as a candidate, so it must carry
// the cell's state, like any candidate, and elect a replacement head.
func TestRetiredHeadElectsAfterNewHeadDies(t *testing.T) {
	settled := func() *Network {
		nw, _ := configureDynamic(t, 400)
		runSweeps(nw, 2)
		return nw
	}
	var heads []radio.NodeID
	probe := settled()
	for _, h := range probe.Snapshot().Heads() {
		if !h.IsBig && len(probe.Candidates(h.ID)) > 0 {
			heads = append(heads, h.ID)
		}
	}
	if len(heads) == 0 {
		t.Fatal("no head has candidates")
	}
	for _, id := range heads {
		nw := settled()
		old := nw.node(id)
		best, _ := BestCandidate(old.IL, nw.cfg.GR, nw.Candidates(id), nw.Position)
		repl := nw.node(best)
		nw.transferHeadRole(old, repl)
		if !old.Candidate {
			t.Errorf("head %d retired to %d outside Rt of its IL", id, best)
			continue
		}
		if old.CellIL != repl.IL || old.CellOIL != repl.OIL || old.CellSpiral != repl.Spiral {
			t.Errorf("head %d retired as a candidate with replica IL %v, the cell's is %v", id, old.CellIL, repl.IL)
		}
		nw.Kill(best)
		promotions := nw.Metrics().Promotions
		nw.associateIntraCell(old)
		if nw.Metrics().Promotions == promotions {
			t.Errorf("head %d retired, its successor %d died, and nobody was elected", id, best)
		}
	}
}
