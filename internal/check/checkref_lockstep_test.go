package check

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// sameAsReference runs Invariant and Fixpoint in both modes, and Stats,
// on snap with the checker and with the reference (checkref_test.go),
// and fails unless the results are identical: the same violations in
// the same order with the same Detail strings, and bit-identical
// Stats. It returns the number of reference violations compared.
func sameAsReference(t testing.TB, name string, snap core.Snapshot) int {
	t.Helper()
	n := 0
	for _, mode := range []Mode{Static, Dynamic} {
		for _, c := range []struct {
			fn        string
			got, want Result
		}{
			{"Invariant", Invariant(snap, mode), refInvariant(snap, mode)},
			{"Fixpoint", Fixpoint(snap, mode), refFixpoint(snap, mode)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s(mode %d) differs from the reference: %s", name, c.fn, mode, firstDiff(c.got, c.want))
			}
			n += len(c.want.Violations)
		}
	}
	if got, want := Stats(snap), refStats(snap); !sameStats(got, want) {
		t.Fatalf("%s: Stats = %+v, reference %+v", name, got, want)
	}
	return n
}

func firstDiff(got, want Result) string {
	for i := range min(len(got.Violations), len(want.Violations)) {
		if got.Violations[i] != want.Violations[i] {
			return fmt.Sprintf("violation %d is %v, reference %v", i, got.Violations[i], want.Violations[i])
		}
	}
	return fmt.Sprintf("%d violations, reference %d", len(got.Violations), len(want.Violations))
}

// sameStats compares Stats results bit for bit, so NaN distances (from
// nodes at non-finite coordinates) compare equal to themselves.
func sameStats(a, b StructureStats) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Heads == b.Heads && a.Associates == b.Associates && a.Bootup == b.Bootup &&
		slices.EqualFunc(a.NeighborDists, b.NeighborDists, same) &&
		slices.EqualFunc(a.CellRadii, b.CellRadii, same) &&
		same(a.MaxILDeviation, b.MaxILDeviation)
}

// extremes are the wild coordinates the suites place nodes at. The
// reference keys grid cells by int conversions that overflow there, so
// only a node no associate has chosen as its head can take a coordinate
// other than NaN: from a far head's associates the reference's
// closest-head ring wraps round to a single cell and misses every
// closer head (TestFarHeadLosesItsAssociates pins what the checker
// reports instead). A point whose distance from finite points is NaN,
// such as (NaN, 0) but not (NaN, +Inf), is never within any distance,
// so any node can take it.
var extremes = []geom.Point{
	{X: math.NaN(), Y: 0},
	{X: math.Inf(1), Y: 50},
	{X: 0, Y: math.Inf(-1)},
	{X: 1e300, Y: -1e300},
	{X: -1e300, Y: 1e300},
	{X: math.NaN(), Y: math.Inf(1)},
}

// canGoWild reports whether snapshot node j may take extreme coordinate
// p in a reference comparison (see extremes).
func canGoWild(snap core.Snapshot, j int, p geom.Point) bool {
	if math.IsNaN(p.Dist(geom.Point{})) || !snap.Nodes[j].IsHead() {
		return true
	}
	id := snap.Nodes[j].ID
	for i := range snap.Nodes {
		if snap.Nodes[i].Status == core.StatusAssociate && snap.Nodes[i].Head == id {
			return false
		}
	}
	return true
}

// withNodes returns a copy of snap whose node views can be changed
// without touching snap's.
func withNodes(snap core.Snapshot) core.Snapshot {
	snap.Nodes = slices.Clone(snap.Nodes)
	return snap
}

// rect returns the axis-aligned rectangle with corners (x0, y0) and
// (x1, y1).
func rect(x0, y0, x1, y1 float64) geom.Polygon {
	return geom.Polygon{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
}

// named is a snapshot with a label for failure messages.
type named struct {
	name string
	snap core.Snapshot
}

// perturbed returns snapshot-level perturbations of snap, each a copy:
// blacked-out nodes, an obstacle dropped onto the structure, associates
// carried off without re-choosing their heads, and one node at each
// wild coordinate.
func perturbed(src *rng.Source, snap core.Snapshot, region float64) []named {
	var out []named
	n := len(snap.Nodes)

	b := withNodes(snap)
	for range n/12 + 1 {
		b.Nodes[src.Intn(n)].Blackout = true
	}
	out = append(out, named{"blackout", b})

	o := withNodes(snap)
	x, y := src.Range(-region/2, region/2), src.Range(-region/2, region/2)
	w, h := src.Range(5, 60), src.Range(40, region/2)
	if src.Intn(2) == 0 {
		w, h = h, w
	}
	o.Obstacles = append(slices.Clone(snap.Obstacles), rect(x, y, x+w, y+h))
	for j := range o.Nodes {
		// Nodes the obstacle fell on are cut off from every other node:
		// the protocol would leave them at bootup.
		if p := o.Nodes[j].Pos; p.X > x && p.X < x+w && p.Y > y && p.Y < y+h && o.Nodes[j].ID != o.BigID {
			o.Nodes[j].Status = core.StatusBootup
		}
	}
	out = append(out, named{"obstacle", o})

	m := withNodes(snap)
	for range 6 {
		j := src.Intn(n)
		if m.Nodes[j].Status == core.StatusAssociate {
			px, py := src.InDisk(region)
			m.Nodes[j].Pos = geom.Point{X: px, Y: py}
		}
	}
	out = append(out, named{"moved", m})

	for i, p := range extremes {
		e := withNodes(snap)
		j := src.Intn(n)
		for !canGoWild(e, j, p) {
			j = (j + 1) % n
		}
		if i%2 == 1 && !e.Nodes[j].IsHead() {
			e.Nodes[j].Status = core.StatusBootup // F4 must not reach it
		}
		e.Nodes[j].Pos = p
		out = append(out, named{fmt.Sprintf("wild %v", p), e})
	}
	return out
}

// TestCheckerMatchesReference is the lockstep suite: over snapshots of
// configured fields (walls on even seeds), settled GS³-D
// structures, heals in progress after a crater, corrupted state, and
// the snapshot-level perturbations of perturbed, the checker's results
// must equal the reference's exactly.
func TestCheckerMatchesReference(t *testing.T) {
	snaps, violations := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		region := 250 + 40*float64(seed)
		// Even seeds put up a wall: on seeds 4 and 8 it cuts the field in
		// two, and the far side stays at bootup.
		var obstacles []geom.Polygon
		if x := 40 + 10*float64(seed); seed%4 == 2 {
			obstacles = []geom.Polygon{rect(x, -region/2, x+30, region/3)}
		} else if seed%4 == 0 {
			obstacles = []geom.Polygon{rect(x, -2*region, x+30, 2*region)}
		}
		nw := configuredField(t, region, seed, obstacles)
		cfg := nw.Config()
		src := rng.New(seed * 7919)
		compare := func(what string, snap core.Snapshot) {
			t.Helper()
			violations += sameAsReference(t, fmt.Sprintf("seed %d, %s", seed, what), snap)
			snaps++
		}
		compareAll := func(what string, snap core.Snapshot) {
			t.Helper()
			compare(what, snap)
			for _, p := range perturbed(src, snap, region) {
				compare(what+", "+p.name, p.snap)
			}
		}
		run := func(heartbeats int) {
			nw.Engine().RunUntil(nw.Engine().Now() + float64(heartbeats)*cfg.HeartbeatInterval)
		}

		compareAll("configured", nw.Snapshot())
		nw.StartMaintenance(core.VariantD)
		run(3)
		compare("settled", nw.Snapshot())

		// A crater of one search radius, checked every heartbeat of its
		// heal.
		cx, cy := src.InDisk(region / 2)
		center := geom.Point{X: cx, Y: cy}
		for _, id := range nw.Medium().WithinDisk(center, cfg.SearchRadius(), radio.None) {
			if id != nw.BigID() {
				nw.Kill(id)
			}
		}
		compare("crater", nw.Snapshot())
		run(1)
		compareAll("healing", nw.Snapshot())
		for hb := 2; hb <= 3; hb++ {
			run(1)
			compare(fmt.Sprintf("healing %d", hb), nw.Snapshot())
		}

		// Corrupted state: displaced ILs, hop counts and statuses.
		snap := nw.Snapshot()
		for k, delta := range []float64{0.5, 1.5, 3} {
			v := snap.Nodes[src.Intn(len(snap.Nodes))]
			nw.Corrupt(v.ID, core.CorruptIL, delta*cfg.Rt)
			nw.Corrupt(snap.Nodes[src.Intn(len(snap.Nodes))].ID, core.CorruptHops, float64(k))
			nw.Corrupt(snap.Nodes[src.Intn(len(snap.Nodes))].ID, core.CorruptStatus, 0)
		}
		compare("corrupted", nw.Snapshot())
		for hb := 1; hb <= 2; hb++ {
			run(1)
			compare(fmt.Sprintf("stabilizing %d", hb), nw.Snapshot())
		}
	}
	if snaps < 150 {
		t.Fatalf("compared %d snapshots, want at least 150", snaps)
	}
	t.Logf("%d snapshots identical to the reference, %d reference violations", snaps, violations)
}
