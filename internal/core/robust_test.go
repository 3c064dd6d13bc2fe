package core

import (
	"testing"

	"gs3/internal/fault"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// buildLossy builds a network whose radio loses each delivery
// independently with the given probability: the fault layer's
// per-delivery loss, which the system model allows for broadcast and
// which also drops unicasts.
func buildLossy(t *testing.T, loss float64) (*Network, Config) {
	t.Helper()
	cfg := DefaultConfig(100)
	dep, err := field.Grid(350, cfg.Rt*0.9, 0.15, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(cfg, testRadioParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Plan{Loss: loss}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(inj)
	for i, p := range dep.Positions {
		if _, err := nw.AddNode(p, i == 0); err != nil {
			t.Fatal(err)
		}
	}
	return nw, cfg
}

func TestConfigureUnderBroadcastLoss(t *testing.T) {
	// With 10% per-delivery loss (broadcast receivers and unicast
	// replies alike) the initial diffusing computation may miss nodes
	// and even whole cells, but GS³-D maintenance (boundary rescans,
	// bootup re-choice every sweep) must converge to full coverage
	// anyway — self-stabilization does not assume reliable broadcast.
	nw, cfg := buildLossy(t, 0.10)
	if err := nw.StartConfiguration(); err != nil {
		t.Fatal(err)
	}
	nw.Engine().Run(0)
	nw.StartMaintenance(VariantD)
	deadline := 60 * cfg.BoundaryRescanEvery
	covered := func() bool {
		for _, v := range nw.Snapshot().Nodes {
			if v.Status == StatusBootup {
				return false
			}
		}
		return true
	}
	for i := 0; i < deadline && !covered(); i++ {
		runSweeps(nw, 1)
	}
	if !covered() {
		bootup := 0
		for _, v := range nw.Snapshot().Nodes {
			if v.Status == StatusBootup {
				bootup++
			}
		}
		t.Fatalf("%d nodes still uncovered under delivery loss", bootup)
	}
	if nw.Medium().Stats().FaultDrops == 0 {
		t.Error("loss model never dropped anything")
	}
}

func TestChaosStorm(t *testing.T) {
	// Failure injection: a random storm of kills, joins, moves, and
	// corruptions, then quiet time. The structure must return to a
	// state with full coverage and no corrupt heads.
	if testing.Short() {
		t.Skip("chaos test")
	}
	nw, cfg := configureGridFresh(t, 100, 400)
	nw.StartMaintenance(VariantM)
	storm := rng.New(2026)

	ids := nw.SortedIDs()
	for round := 0; round < 30; round++ {
		runSweeps(nw, 1)
		switch storm.Intn(4) {
		case 0: // kill a random alive node
			id := ids[storm.Intn(len(ids))]
			nw.Kill(id)
		case 1: // join a node somewhere in the region
			x, y := storm.InDisk(380)
			nw.Join(geom.Point{X: x, Y: y})
		case 2: // teleport a random node
			id := ids[storm.Intn(len(ids))]
			x, y := storm.InDisk(380)
			nw.Move(id, geom.Point{X: x, Y: y})
		case 3: // corrupt a random head
			heads := nw.Snapshot().Heads()
			if len(heads) > 1 {
				h := heads[1+storm.Intn(len(heads)-1)]
				kinds := []CorruptionKind{CorruptIL, CorruptHops, CorruptStatus}
				nw.Corrupt(h.ID, kinds[storm.Intn(3)], 3*cfg.Rt)
			}
		}
	}

	// Quiet period: self-stabilization must clean everything up.
	runSweeps(nw, 20*SanityCheckEvery)

	snap := nw.Snapshot()
	for _, v := range snap.Nodes {
		if v.Status == StatusBootup {
			// A node may legitimately be uncovered if the storm
			// stranded it out of range of everything.
			if len(nw.headRoleAt(v.Pos, cfg.SearchRadius())) > 0 {
				t.Errorf("node %d uncovered despite heads in range", v.ID)
			}
		}
		if v.IsHead() && v.Pos.Dist(v.IL) > cfg.Rt+1e-9 {
			t.Errorf("head %d survives with corrupt IL (deviation %.1f)", v.ID, v.Pos.Dist(v.IL))
		}
	}
	// The head graph must still be a forest rooted at the big node (or
	// proxy): no cycles.
	views := map[radio.NodeID]NodeView{}
	for _, v := range snap.Nodes {
		views[v.ID] = v
	}
	for _, h := range snap.Heads() {
		seen := map[radio.NodeID]bool{}
		cur := h
		for !cur.IsBig && cur.Parent != cur.ID && cur.Parent != radio.None {
			if seen[cur.ID] {
				t.Fatalf("cycle in head graph at %d", cur.ID)
			}
			seen[cur.ID] = true
			next, ok := views[cur.Parent]
			if !ok || !next.IsHead() {
				break
			}
			cur = next
		}
	}
}

func TestMassiveSimultaneousHeadDeath(t *testing.T) {
	// Kill every single head (except the big node) at once — the
	// worst-case §4.3.5.2 "multiple simultaneous perturbations". Every
	// cell must recover by candidate promotion in parallel.
	nw, cfg := configureGridFresh(t, 100, 400)
	nw.StartMaintenance(VariantD)
	runSweeps(nw, 2)
	before := len(nw.Snapshot().Heads())
	for _, h := range nw.Snapshot().Heads() {
		if !h.IsBig {
			nw.Kill(h.ID)
		}
	}
	runSweeps(nw, 8)
	after := len(nw.Snapshot().Heads())
	if after < before-2 {
		t.Errorf("heads %d -> %d after mass head death", before, after)
	}
	if nw.Metrics().Promotions == 0 {
		t.Error("no candidate promotions")
	}
	bootup := 0
	for _, v := range nw.Snapshot().Nodes {
		if v.Status == StatusBootup {
			bootup++
		}
	}
	if bootup > 0 {
		t.Errorf("%d nodes uncovered after recovery", bootup)
	}
	_ = cfg
}

func TestRepeatedKillOfReplacements(t *testing.T) {
	// Keep killing whoever heads one particular cell, several times in
	// a row; the cell must keep recovering until its candidate area
	// runs dry, after which the members re-home.
	nw, cfg := configureDynamic(t, 400)
	target := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	oil := target.OIL
	for round := 0; round < 6; round++ {
		for _, h := range nw.Snapshot().Heads() {
			if h.OIL.Dist(oil) < cfg.Rt && !h.IsBig {
				nw.Kill(h.ID)
			}
		}
		runSweeps(nw, 4)
	}
	// Whatever happened, nobody is left stranded.
	for _, v := range nw.Snapshot().Nodes {
		if v.Status == StatusBootup {
			t.Errorf("node %d stranded after repeated kills", v.ID)
		}
	}
}
