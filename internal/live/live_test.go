package live

import (
	"runtime"
	"testing"

	"gs3/internal/core"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

func liveDeployment(t *testing.T, regionRadius float64) (core.Config, field.Deployment) {
	t.Helper()
	cfg := core.DefaultConfig(100)
	dep, err := field.Grid(regionRadius, cfg.Rt*0.9, 0.15, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, dep
}

// headIDs returns the IDs of the nodes that ended a run as heads, in
// ascending order.
func headIDs(r Result) []radio.NodeID {
	var out []radio.NodeID
	for _, rep := range r.Reports {
		if rep.IsHead {
			out = append(out, rep.ID)
		}
	}
	return out
}

// TestRunAllocsPerNode pins live.Run's memory to the messages actually
// sent. Each node's inbox used to be a channel buffered for 4N+64
// messages, O(N²) bytes in all: 1,578 MB, ~880 KB per node, on this
// 1,794-node field. The mailboxes total 6.0–6.5 KB per node here, with
// and without the race detector; the budget leaves room for scheduling
// variation, not for a buffer that grows with N.
func TestRunAllocsPerNode(t *testing.T) {
	cfg := core.DefaultConfig(50)
	dep, err := field.Grid(250, cfg.Rt*0.9, 0.15, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if dep.N() != 1794 {
		t.Fatalf("field has %d nodes, want 1794", dep.N())
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, dep); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 32 << 10 // bytes per node
	if perNode := (after.TotalAlloc - before.TotalAlloc) / uint64(dep.N()); perNode > budget {
		t.Errorf("Run allocated %d B per node, budget %d", perNode, budget)
	}
}

func TestRunEmptyDeployment(t *testing.T) {
	cfg := core.DefaultConfig(100)
	if _, err := Run(cfg, field.Deployment{}); err == nil {
		t.Error("empty deployment accepted")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	cfg := core.DefaultConfig(100)
	cfg.Rt = 0
	if _, err := Run(cfg, field.Deployment{Positions: []geom.Point{{}}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunTerminatesAndCovers(t *testing.T) {
	cfg, dep := liveDeployment(t, 350)
	res, err := Run(cfg, dep)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != dep.N() {
		t.Fatalf("reports = %d, want %d", len(res.Reports), dep.N())
	}
	heads := headIDs(res)
	if len(heads) < 7 {
		t.Fatalf("only %d heads", len(heads))
	}
	uncovered := 0
	for _, rep := range res.Reports {
		if !rep.IsHead && rep.Head == radio.None {
			uncovered++
		}
	}
	if uncovered > 0 {
		t.Errorf("%d nodes uncovered", uncovered)
	}
}

func TestRunHeadsNearILs(t *testing.T) {
	cfg, dep := liveDeployment(t, 350)
	res, err := Run(cfg, dep)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Reports {
		if d := dep.Positions[rep.ID].Dist(rep.IL); rep.IsHead && d > cfg.Rt+1e-9 {
			t.Errorf("head %d is %v from its IL", rep.ID, d)
		}
	}
}

func TestRunNeighborHeadDistances(t *testing.T) {
	cfg, dep := liveDeployment(t, 350)
	res, err := Run(cfg, dep)
	if err != nil {
		t.Fatal(err)
	}
	var headReports []Report
	for _, rep := range res.Reports {
		if rep.IsHead {
			headReports = append(headReports, rep)
		}
	}
	for i, a := range headReports {
		for _, b := range headReports[i+1:] {
			d := dep.Positions[a.ID].Dist(dep.Positions[b.ID])
			if d <= cfg.NeighborDistMax()+1e-9 && d < cfg.NeighborDistMin()-1e-9 {
				t.Errorf("heads %d,%d at %v inside the forbidden band", a.ID, b.ID, d)
			}
		}
	}
}

// TestLiveMatchesEventDriven makes the goroutine runtime an oracle for
// core's HEAD_SELECT and ASSOCIATE_ORG_RESP: on each field, configured
// by both runtimes, the same nodes end as heads, at the same ILs (up to
// rounding: each runtime derives an IL along its own chain of parents),
// and every other node is an associate of the same head, or of none in
// both. A change to core's
// head selection or head choice that the live runtime does not share
// fails it.
func TestLiveMatchesEventDriven(t *testing.T) {
	cfg := core.DefaultConfig(100)
	grid := func(radius float64, seed uint64) (field.Deployment, error) {
		return field.Grid(radius, cfg.Rt*0.9, 0.15, rng.New(seed))
	}
	poisson := func(lambda float64, seed uint64) (field.Deployment, error) {
		return field.Poisson(field.Config{Radius: 400, Lambda: lambda}, rng.New(seed))
	}
	for _, tc := range []struct {
		name string
		dep  func() (field.Deployment, error)
	}{
		{"grid 350 seed 7", func() (field.Deployment, error) { return grid(350, 7) }},
		{"grid 500 seed 2", func() (field.Deployment, error) { return grid(500, 2) }},
		{"poisson 0.01 seed 3", func() (field.Deployment, error) { return poisson(0.01, 3) }},
		{"poisson 0.002 seed 5", func() (field.Deployment, error) { return poisson(0.002, 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep, err := tc.dep()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg, dep)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := core.NewNetwork(cfg, netsim.DefaultOptions(cfg.R, 0).Radio)
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
			snap := nw.Snapshot()
			heads, associates, bootup := 0, 0, 0
			for _, rep := range res.Reports {
				v, ok := snap.View(rep.ID)
				switch {
				case !ok:
					t.Fatalf("node %d missing from the event-driven run", rep.ID)
				case rep.IsHead != v.Status.IsHeadRole():
					t.Errorf("node %d: live head %v, event-driven status %v", rep.ID, rep.IsHead, v.Status)
				case rep.IsHead && rep.IL.Dist(v.IL) > 1e-9*cfg.R:
					t.Errorf("head %d: live IL %v, event-driven %v", rep.ID, rep.IL, v.IL)
				case rep.IsHead:
					heads++
				case rep.Head != v.Head:
					t.Errorf("node %d: live head %d, event-driven %v of %d", rep.ID, rep.Head, v.Status, v.Head)
				case v.Status == core.StatusAssociate:
					associates++
				default:
					bootup++ // heard no head in either runtime
				}
			}
			if len(res.Reports) != len(snap.Nodes) {
				t.Errorf("live reports %d nodes, event-driven has %d", len(res.Reports), len(snap.Nodes))
			}
			t.Logf("%d nodes: %d heads, %d associates and %d bootup nodes agree", len(res.Reports), heads, associates, bootup)
		})
	}
}

func TestRunRepeatedStable(t *testing.T) {
	// The head set is schedule-independent: reservations plus
	// deterministic ranking make repeated runs elect identical heads.
	cfg, dep := liveDeployment(t, 300)
	first, err := Run(cfg, dep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := Run(cfg, dep)
		if err != nil {
			t.Fatal(err)
		}
		a, b := headIDs(first), headIDs(res)
		if len(a) != len(b) {
			t.Fatalf("run %d: head count %d vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("run %d: head sets differ at %d: %d vs %d", i, j, b[j], a[j])
			}
		}
	}
}
