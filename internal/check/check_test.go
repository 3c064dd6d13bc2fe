package check

import (
	"strings"
	"testing"

	"gs3/internal/core"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// configured returns a freshly configured static network snapshot plus
// the network for mutation.
func configured(t *testing.T, regionRadius float64) (*core.Network, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig(100)
	dep, err := field.Grid(regionRadius, cfg.Rt*0.9, 0.15, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	params := radio.Params{
		MaxRange:           cfg.SearchRadius() + cfg.Rt,
		DiffusionSpeed:     cfg.SearchRadius(),
		PerMessageOverhead: 0.001,
	}
	nw, err := core.NewNetwork(cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range dep.Positions {
		if _, err := nw.AddNode(p, i == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.StartConfiguration(); err != nil {
		t.Fatal(err)
	}
	nw.Engine().Run(0)
	return nw, cfg
}

func TestInvariantHoldsAfterConfiguration(t *testing.T) {
	nw, _ := configured(t, 400)
	r := Invariant(nw.Snapshot(), Static)
	if !r.OK() {
		for _, v := range r.Violations[:min(10, len(r.Violations))] {
			t.Errorf("violation: %v", v)
		}
	}
}

func TestFixpointHoldsAfterConfiguration(t *testing.T) {
	nw, _ := configured(t, 400)
	r := Fixpoint(nw.Snapshot(), Static)
	if !r.OK() {
		for _, v := range r.Violations[:min(10, len(r.Violations))] {
			t.Errorf("violation: %v", v)
		}
	}
}

func TestDynamicFixpointAfterMaintenance(t *testing.T) {
	nw, cfg := configured(t, 400)
	nw.StartMaintenance(core.VariantD)
	nw.Engine().RunUntil(nw.Engine().Now() + 8*cfg.HeartbeatInterval)
	r := Fixpoint(nw.Snapshot(), Dynamic)
	if !r.OK() {
		for _, v := range r.Violations[:min(10, len(r.Violations))] {
			t.Errorf("violation: %v", v)
		}
	}
}

func TestDetectsCorruptedIL(t *testing.T) {
	nw, cfg := configured(t, 400)
	snap := nw.Snapshot()
	heads := snap.Heads()
	var victim radio.NodeID
	for _, h := range heads {
		if !h.IsBig {
			victim = h.ID
			break
		}
	}
	nw.Corrupt(victim, core.CorruptIL, 3*cfg.Rt)
	r := Invariant(nw.Snapshot(), Static)
	if r.OK() {
		t.Fatal("corrupted IL not detected")
	}
	found := false
	for _, v := range r.Violations {
		if v.Clause == "I2.0" && v.Node == victim {
			found = true
		}
	}
	if !found {
		t.Errorf("expected I2.0 violation at %d, got %v", victim, r.Violations)
	}
}

func TestDetectsBrokenTree(t *testing.T) {
	nw, _ := configured(t, 400)
	// Fabricate a cycle: make some head its own grandparent by pointing
	// the big node's child back at a descendant. Corrupt via hops and a
	// self-parent hack through the exported Corrupt API is not enough;
	// instead kill the big node so every walk is rootless.
	nw.Kill(nw.BigID())
	r := Invariant(nw.Snapshot(), Static)
	if r.OK() {
		t.Fatal("rootless head graph not detected")
	}
	has := false
	for _, v := range r.Violations {
		if strings.HasPrefix(v.Clause, "I1") {
			has = true
		}
	}
	if !has {
		t.Errorf("expected I1 violations, got %v", r.Violations)
	}
}

func TestDetectsStolenAssociate(t *testing.T) {
	nw, _ := configured(t, 400)
	// Move an inner associate next to a different cell's head without
	// updating its membership: F3/I3 must flag it.
	snap := nw.Snapshot()
	var assoc core.NodeView
	for _, v := range snap.Nodes {
		if v.Status == core.StatusAssociate && v.Pos.Dist(geom.Point{}) < 150 {
			assoc = v
			break
		}
	}
	var farHead core.NodeView
	for _, h := range snap.Heads() {
		if h.ID != assoc.Head && !h.IsBig && h.Pos.Dist(assoc.Pos) > 200 && h.Pos.Dist(geom.Point{}) < 250 {
			farHead = h
			break
		}
	}
	if farHead.ID == 0 {
		t.Skip("no suitable far head")
	}
	nw.Move(assoc.ID, farHead.Pos.Add(geom.Vec{X: 1, Y: 1}))
	r := Fixpoint(nw.Snapshot(), Static)
	if r.OK() {
		t.Fatal("mis-assigned associate not detected")
	}
}

func TestDetectsBootupStraggler(t *testing.T) {
	nw, cfg := configured(t, 400)
	id := nw.Join(geom.Point{X: 0, Y: 100})
	// Force it back to bootup state by corrupting: simplest is joining
	// out of range then moving in without re-choosing.
	_ = id
	strangler := nw.Join(geom.Point{X: 400 + 3*cfg.SearchRadius(), Y: 0})
	nw.Move(strangler, geom.Point{X: 50, Y: 50})
	r := Fixpoint(nw.Snapshot(), Static)
	if r.OK() {
		t.Fatal("bootup straggler not detected by F4")
	}
	found := false
	for _, v := range r.Violations {
		if v.Clause == "F4" && v.Node == strangler {
			found = true
		}
	}
	if !found {
		t.Errorf("expected F4 violation at %d", strangler)
	}
}

func TestStats(t *testing.T) {
	nw, cfg := configured(t, 400)
	st := Stats(nw.Snapshot())
	if st.Heads < 7 {
		t.Errorf("heads = %d", st.Heads)
	}
	if st.Associates == 0 || st.Bootup != 0 {
		t.Errorf("associates=%d bootup=%d", st.Associates, st.Bootup)
	}
	if st.MaxILDeviation > cfg.Rt {
		t.Errorf("max IL deviation %v > Rt", st.MaxILDeviation)
	}
	if len(st.NeighborDists) == 0 || len(st.CellRadii) == 0 {
		t.Error("empty distance samples")
	}
	for _, d := range st.NeighborDists {
		if d < cfg.NeighborDistMin()-1e-9 || d > cfg.NeighborDistMax()+1e-9 {
			t.Errorf("neighbor distance %v outside Corollary 1 bounds", d)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Clause: "I2.1", Node: 5, Detail: "too far"}
	s := v.String()
	if !strings.Contains(s, "I2.1") || !strings.Contains(s, "5") {
		t.Errorf("String() = %q", s)
	}
}

func TestResultOK(t *testing.T) {
	var r Result
	if !r.OK() {
		t.Error("empty result should be OK")
	}
	r.addf("X", 1, "boom")
	if r.OK() {
		t.Error("non-empty result reported OK")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
