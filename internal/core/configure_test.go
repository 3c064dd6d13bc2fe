package core

import (
	"math"
	"testing"

	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

func testRadioParams(cfg Config) radio.Params {
	return radio.Params{
		MaxRange:           cfg.SearchRadius() + cfg.Rt,
		DiffusionSpeed:     cfg.SearchRadius(), // one search radius per time unit
		PerMessageOverhead: 0.001,
	}
}

// buildNetwork creates a network from a deployment and returns it.
func buildNetwork(t *testing.T, cfg Config, dep field.Deployment) *Network {
	t.Helper()
	nw, err := NewNetwork(cfg, testRadioParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range dep.Positions {
		if _, err := nw.AddNode(p, i == 0); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// configureGridFresh builds a dense deterministic deployment and runs
// GS³-S to completion. Use it for tests that mutate the network.
func configureGridFresh(t *testing.T, r, regionRadius float64) (*Network, Config) {
	t.Helper()
	cfg := DefaultConfig(r)
	dep, err := field.Grid(regionRadius, cfg.Rt*0.9, 0.15, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	nw := buildNetwork(t, cfg, dep)
	if err := nw.StartConfiguration(); err != nil {
		t.Fatal(err)
	}
	nw.Engine().Run(0)
	return nw, cfg
}

var configuredCache = map[[2]float64]*Network{}

// configureGrid returns a shared configured network for read-only
// tests, building it on first use.
func configureGrid(t *testing.T, r, regionRadius float64) (*Network, Config) {
	t.Helper()
	key := [2]float64{r, regionRadius}
	if nw, ok := configuredCache[key]; ok {
		return nw, nw.Config()
	}
	nw, cfg := configureGridFresh(t, r, regionRadius)
	configuredCache[key] = nw
	return nw, cfg
}

func TestStartConfigurationRequiresBigNode(t *testing.T) {
	cfg := testConfig()
	nw, err := NewNetwork(cfg, testRadioParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.StartConfiguration(); err == nil {
		t.Error("configuration started without a big node")
	}
}

func TestAddNodeRejectsSecondBig(t *testing.T) {
	cfg := testConfig()
	nw, _ := NewNetwork(cfg, testRadioParams(cfg))
	if _, err := nw.AddNode(geom.Point{}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode(geom.Point{X: 1}, true); err == nil {
		t.Error("second big node accepted")
	}
}

func TestConfigureProducesHeads(t *testing.T) {
	nw, cfg := configureGrid(t, 100, 450)
	snap := nw.Snapshot()
	heads := snap.Heads()
	if len(heads) < 7 {
		t.Fatalf("only %d heads configured", len(heads))
	}
	// The big node is a head with itself as parent.
	big, ok := snap.View(nw.BigID())
	if !ok || !big.IsHead() || big.Parent != nw.BigID() || big.Hops != 0 {
		t.Errorf("big node view: %+v", big)
	}
	_ = cfg
}

func TestConfigureHeadsNearTheirILs(t *testing.T) {
	nw, cfg := configureGrid(t, 100, 450)
	for _, h := range nw.Snapshot().Heads() {
		if d := h.Pos.Dist(h.IL); d > cfg.Rt {
			t.Errorf("head %d is %v from its IL, beyond Rt=%v", h.ID, d, cfg.Rt)
		}
	}
}

func TestConfigureNeighborHeadDistances(t *testing.T) {
	// Corollary 1: neighboring heads are √3R ± 2Rt apart.
	nw, cfg := configureGrid(t, 100, 450)
	snap := nw.Snapshot()
	views := make(map[radio.NodeID]NodeView)
	for _, v := range snap.Nodes {
		views[v.ID] = v
	}
	checked := 0
	for _, h := range snap.Heads() {
		for _, nid := range h.Neighbors {
			nv, ok := views[nid]
			if !ok || !nv.IsHead() {
				continue
			}
			d := h.Pos.Dist(nv.Pos)
			if d < cfg.NeighborDistMin()-1e-9 || d > cfg.NeighborDistMax()+1e-9 {
				t.Errorf("heads %d,%d at distance %v outside [%v,%v]",
					h.ID, nid, d, cfg.NeighborDistMin(), cfg.NeighborDistMax())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no neighbor pairs checked")
	}
}

func TestConfigureILsOnLattice(t *testing.T) {
	// All cell ILs must be exact points of the hexagonal lattice rooted
	// at the big node: deviation must not accumulate.
	nw, cfg := configureGrid(t, 100, 450)
	snap := nw.Snapshot()
	big, _ := snap.View(nw.BigID())
	for _, h := range snap.Heads() {
		// Distance from the root IL must be a lattice distance: for a
		// hex lattice all center distances are √(a²+ab+b²)·√3R for
		// integers a,b — verify by snapping to the nearest lattice point.
		v := h.IL.Sub(big.IL)
		// Rotate into lattice frame and check integrality.
		e1 := geom.UnitAt(cfg.GR)
		e2 := geom.UnitAt(cfg.GR + math.Pi/3)
		det := e1.X*e2.Y - e2.X*e1.Y
		a := (e2.Y*v.X - e2.X*v.Y) / (det * cfg.HeadSpacing())
		b := (-e1.Y*v.X + e1.X*v.Y) / (det * cfg.HeadSpacing())
		if math.Abs(a-math.Round(a)) > 1e-6 || math.Abs(b-math.Round(b)) > 1e-6 {
			t.Errorf("head %d IL %v is off-lattice (a=%v b=%v)", h.ID, h.IL, a, b)
		}
	}
}

func TestConfigureAssociatesChooseClosestHead(t *testing.T) {
	// Fixpoint F₃/invariant I₃: each associate's head is the closest.
	nw, _ := configureGrid(t, 100, 450)
	snap := nw.Snapshot()
	heads := snap.Heads()
	for _, v := range snap.Nodes {
		if v.Status != StatusAssociate {
			continue
		}
		chosen := v.Pos.Dist(positionOf(snap, v.Head))
		for _, h := range heads {
			if d := v.Pos.Dist(h.Pos); d < chosen-1e-9 {
				t.Errorf("associate %d chose head at %v but head %d is at %v", v.ID, chosen, h.ID, d)
			}
		}
	}
}

func positionOf(s Snapshot, id radio.NodeID) geom.Point {
	v, _ := s.View(id)
	return v.Pos
}

func TestConfigureCellRadiusBound(t *testing.T) {
	// Invariant I₂.₄: associates within R + 2Rt/√3 of their head for
	// inner cells. Boundary cells may exceed it, so only check
	// associates well inside the deployment.
	nw, cfg := configureGrid(t, 100, 450)
	snap := nw.Snapshot()
	bound := cfg.CellRadiusBound()
	for _, v := range snap.Nodes {
		if v.Status != StatusAssociate {
			continue
		}
		if v.Pos.Dist(geom.Point{}) > 450-2*cfg.R {
			continue
		}
		if d := v.Pos.Dist(positionOf(snap, v.Head)); d > bound+1e-9 {
			t.Errorf("inner associate %d at distance %v from head, bound %v", v.ID, d, bound)
		}
	}
}

func TestConfigureChildrenBound(t *testing.T) {
	// Invariant I₂.₃: ≤3 children per head; the big node ≤6.
	nw, _ := configureGrid(t, 100, 450)
	for _, h := range nw.Snapshot().Heads() {
		limit := 3
		if h.IsBig {
			limit = 6
		}
		if len(h.Children) > limit {
			t.Errorf("head %d has %d children (limit %d)", h.ID, len(h.Children), limit)
		}
	}
}

func TestConfigureHeadGraphIsTree(t *testing.T) {
	// Invariant I₁.₂: the head graph is a tree rooted at the big node.
	nw, _ := configureGrid(t, 100, 450)
	snap := nw.Snapshot()
	for _, h := range snap.Heads() {
		if h.IsBig {
			continue
		}
		// Walk to the root; must terminate at the big node without
		// cycles.
		seen := map[radio.NodeID]bool{h.ID: true}
		cur := h
		for !cur.IsBig {
			p, ok := snap.View(cur.Parent)
			if !ok {
				t.Fatalf("head %d has dangling parent %d", cur.ID, cur.Parent)
			}
			if seen[p.ID] {
				t.Fatalf("cycle in head graph at %d", p.ID)
			}
			seen[p.ID] = true
			cur = p
		}
	}
}

func TestConfigureCoverage(t *testing.T) {
	// Fixpoint F₄: every node connected to the big node ends up in a
	// cell (head or associate); no bootup stragglers in a gap-free
	// dense deployment.
	nw, _ := configureGrid(t, 100, 450)
	for _, v := range nw.Snapshot().Nodes {
		if v.Status == StatusBootup {
			t.Errorf("node %d left at bootup (pos %v)", v.ID, v.Pos)
		}
	}
}

func TestConfigureInnerHeadsHaveSixNeighbors(t *testing.T) {
	// Invariant I₂.₁: inner heads have exactly 6 neighboring heads.
	nw, cfg := configureGrid(t, 100, 450)
	snap := nw.Snapshot()
	for _, h := range snap.Heads() {
		if h.Pos.Dist(geom.Point{}) > 450-2*cfg.HeadSpacing() {
			continue // boundary cell
		}
		// Count head-role nodes within the neighbor distance band.
		count := 0
		for _, other := range snap.Heads() {
			if other.ID == h.ID {
				continue
			}
			d := h.Pos.Dist(other.Pos)
			if d <= cfg.NeighborDistMax() {
				count++
			}
		}
		if count != 6 {
			t.Errorf("inner head %d has %d neighbors, want 6", h.ID, count)
		}
	}
}

func TestConfigureConvergenceTimeLinearInRadius(t *testing.T) {
	// Theorem 4: convergence within θ(D_b). Doubling the region radius
	// should roughly double the virtual completion time.
	if testing.Short() {
		t.Skip("scaling test")
	}
	times := make([]float64, 0, 2)
	for _, radius := range []float64{400, 800} {
		cfg := DefaultConfig(100)
		dep, err := field.Grid(radius, cfg.Rt*0.9, 0.1, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		nw := buildNetwork(t, cfg, dep)
		if err := nw.StartConfiguration(); err != nil {
			t.Fatal(err)
		}
		nw.Engine().Run(0)
		times = append(times, nw.Engine().Now())
	}
	ratio := times[1] / times[0]
	if ratio < 1.4 || ratio > 2.8 {
		t.Errorf("time ratio for 2× radius = %v, want ≈2", ratio)
	}
}

func TestSettleAssociatesIdempotentAfterConfigure(t *testing.T) {
	nw, _ := configureGrid(t, 100, 450)
	// Re-running ChooseHead on every alive associate moves none:
	// configuration leaves each on its best head (fixpoint F₃).
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
	if changed != 0 {
		t.Errorf("configuration left %d associates on non-best heads", changed)
	}
}

func TestSnapshotExcludesDead(t *testing.T) {
	nw, _ := configureGridFresh(t, 100, 300)
	snap := nw.Snapshot()
	n := len(snap.Nodes)
	victim := snap.Nodes[len(snap.Nodes)-1].ID
	nw.Kill(victim)
	snap2 := nw.Snapshot()
	if len(snap2.Nodes) != n-1 {
		t.Errorf("dead node still in snapshot")
	}
	if _, ok := snap2.View(victim); ok {
		t.Error("victim still visible")
	}
}

func TestMetricsCounted(t *testing.T) {
	nw, _ := configureGrid(t, 100, 300)
	m := nw.Metrics()
	if m.HeadOrgs == 0 || m.HeadsSelected == 0 || m.ReplyMessages == 0 {
		t.Errorf("metrics not recorded: %+v", m)
	}
	if nw.Medium().Stats().Broadcasts == 0 {
		t.Error("no broadcasts recorded")
	}
}

func TestKillIsIdempotent(t *testing.T) {
	nw, _ := configureGridFresh(t, 100, 300)
	id := nw.Snapshot().Nodes[1].ID
	nw.Kill(id)
	nw.Kill(id) // no panic
	if nw.Alive(id) {
		t.Error("killed node alive")
	}
}
