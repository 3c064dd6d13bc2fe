package check

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gs3/internal/core"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// configured returns a freshly configured static network plus its
// configuration.
func configured(t *testing.T, regionRadius float64) (*core.Network, core.Config) {
	t.Helper()
	nw := configuredField(t, regionRadius, 7, nil)
	return nw, nw.Config()
}

// configuredField configures a jittered grid of the given radius, drawn
// from seed, with cell radius 100: the field gs3.GridDeployment(radius,
// 22.5, 0.15, seed) gives. The obstacles, if any, clear the nodes inside
// them and occlude the medium from the start.
func configuredField(t testing.TB, regionRadius float64, seed uint64, obstacles []geom.Polygon) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(100)
	dep, err := field.Grid(regionRadius, cfg.Rt*0.9, 0.15, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(obstacles) > 0 {
		dep = field.WithObstacles(dep, obstacles)
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
	if len(obstacles) > 0 {
		nw.Medium().SetObstacles(obstacles)
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
	return nw
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

// farAssociate configures gs3.GridDeployment(400, 22.5, 0.15, 1) with
// cell radius 100 (1,153 nodes) and carries its highest-ID associate to
// (d, d) without letting it re-choose its head.
func farAssociate(t *testing.T, d float64) (core.Snapshot, radio.NodeID) {
	t.Helper()
	nw := configuredField(t, 400, 1, nil)
	snap := nw.Snapshot()
	if len(snap.Nodes) != 1153 {
		t.Fatalf("field has %d nodes, want 1,153", len(snap.Nodes))
	}
	id := radio.None
	for _, v := range snap.Nodes {
		if v.Status == core.StatusAssociate {
			id = v.ID
		}
	}
	nw.Move(id, geom.Point{X: d, Y: d})
	return nw.Snapshot(), id
}

// An associate carried far from its head costs the closest-head scans
// time linear in the heads, not in the square of the distance: the
// scans stop at the occupied cells. Before they did, Fixpoint took 48 ms
// at d = 1e5 and 5 s at d = 1e6, and never finished at d = 1e12. The
// stray is reported twice, beyond coordination range (I3) and nearer
// other heads than its own (F3), exactly as the reference reports it
// where the reference finishes.
func TestFixpointFarAssociate(t *testing.T) {
	snap, id := farAssociate(t, 1e5)
	got := Fixpoint(snap, Dynamic)
	if want := refFixpoint(snap, Dynamic); !reflect.DeepEqual(got, want) {
		t.Fatalf("d=1e5: Fixpoint = %v, reference %v", got.Violations, want.Violations)
	}
	snap, id = farAssociate(t, 1e12)
	var clauses []string
	for _, v := range Fixpoint(snap, Dynamic).Violations {
		if v.Node != id {
			t.Errorf("d=1e12: unexpected violation %v", v)
		}
		clauses = append(clauses, v.Clause)
	}
	if !slices.Equal(clauses, []string{"I3", "F3"}) {
		t.Errorf("d=1e12: clauses %v for the stray associate, want [I3 F3]", clauses)
	}
}

// A head carried to a wild coordinate is no associate's closest head:
// F3 reports every associate of its that is up, naming the lowest-ID
// head it can hear. (The reference misses these: its ring arithmetic
// overflows at such distances, and on amd64 the ring collapses to a
// single cell — see extremes.)
func TestFarHeadLosesItsAssociates(t *testing.T) {
	nw := configuredField(t, 400, 1, nil)
	base := nw.Snapshot()
	var head core.NodeView
	for _, h := range base.Heads() {
		if !h.IsBig && len(base.Members(h.ID)) > 0 {
			head = h
			break
		}
	}
	members := base.Members(head.ID)
	if len(members) < 2 {
		t.Fatalf("head %d has %d associates, want at least 2", head.ID, len(members))
	}
	for _, p := range []geom.Point{{X: 1e300, Y: -1e300}, {X: math.Inf(1), Y: 0}} {
		snap := withNodes(base)
		for j := range snap.Nodes {
			switch snap.Nodes[j].ID {
			case head.ID:
				snap.Nodes[j].Pos = p
			case members[0]:
				snap.Nodes[j].Blackout = true // down: re-choice pending restore
			}
		}
		var flagged []radio.NodeID
		for _, v := range Fixpoint(snap, Dynamic).Violations {
			if v.Clause == "F3" {
				flagged = append(flagged, v.Node)
			}
		}
		want := members[1:]
		if !slices.Equal(flagged, want) {
			t.Errorf("head %d at %v: F3 flags %v, want its up associates %v", head.ID, p, flagged, want)
		}
	}
}

// shiftIDs returns a copy of snap with every node ID, and every
// reference to one, moved up by off.
func shiftIDs(snap core.Snapshot, off radio.NodeID) core.Snapshot {
	move := func(id radio.NodeID) radio.NodeID {
		if id == radio.None {
			return id
		}
		return id + off
	}
	moveAll := func(ids []radio.NodeID) []radio.NodeID {
		out := make([]radio.NodeID, len(ids))
		for i, id := range ids {
			out[i] = move(id)
		}
		return out
	}
	out := snap
	out.BigID = move(snap.BigID)
	out.Nodes = slices.Clone(snap.Nodes)
	for i := range out.Nodes {
		v := &out.Nodes[i]
		v.ID, v.Parent, v.Head, v.Proxy = move(v.ID), move(v.Parent), move(v.Head), move(v.Proxy)
		v.Children, v.Neighbors = moveAll(v.Children), moveAll(v.Neighbors)
	}
	return out
}

// TestSparseIDsCheckAsRenumbered: a decoded snapshot whose IDs reach
// 2³¹−1, or just below, checks exactly as the same snapshot with its IDs
// renumbered from 0, in O(len(Nodes)) memory. A table indexed by ID
// would need ~8 GB for such a snapshot, or panic sizing it.
func TestSparseIDsCheckAsRenumbered(t *testing.T) {
	nw, cfg := configured(t, 250)
	for _, h := range nw.Snapshot().Heads() {
		if !h.IsBig {
			nw.Corrupt(h.ID, core.CorruptIL, 3*cfg.Rt)
			break
		}
	}
	field := nw.Snapshot()
	lone := func(id radio.NodeID) core.Snapshot {
		var s core.Snapshot
		data := fmt.Sprintf(`{"config":{"r":100,"rt":25},"nodes":[{"id":%d,"status":"head"}]}`, id)
		if err := s.UnmarshalJSON([]byte(data)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	type check struct {
		name string
		run  func(core.Snapshot) Result
	}
	checks := []check{
		{"Invariant(Static)", func(s core.Snapshot) Result { return Invariant(s, Static) }},
		{"Invariant(Dynamic)", func(s core.Snapshot) Result { return Invariant(s, Dynamic) }},
		{"Fixpoint(Dynamic)", func(s core.Snapshot) Result { return Fixpoint(s, Dynamic) }},
	}
	compare := func(base, sparse core.Snapshot, off radio.NodeID) {
		t.Helper()
		for _, c := range checks {
			want, got := c.run(base), c.run(sparse)
			if len(got.Violations) != len(want.Violations) {
				t.Fatalf("IDs up by %d, %d nodes: %s found %d violations, renumbered from 0 %d", off, len(base.Nodes), c.name, len(got.Violations), len(want.Violations))
			}
			for i, v := range got.Violations {
				if w := want.Violations[i]; v.Clause != w.Clause || v.Node != w.Node+off {
					t.Fatalf("IDs up by %d: %s violation %d is %v, renumbered from 0 %v", off, c.name, i, v, w)
				}
			}
			if len(want.Violations) == 0 {
				t.Fatalf("%s: the snapshot checks clean", c.name)
			}
		}
	}
	for _, top := range []radio.NodeID{math.MaxInt32, math.MaxInt32 - 1} {
		// The corrupted field with IDs moved up to top, through JSON.
		off := top - field.Nodes[len(field.Nodes)-1].ID
		data, err := shiftIDs(field, off).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var sparse core.Snapshot
		if err := sparse.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		compare(field, sparse, off)
		// A lone head with ID top, whose references name the absent ID 0.
		compare(shiftIDs(lone(top), -top), lone(top), top)
	}
}
