package core

import (
	"math"
	"testing"
	"testing/quick"

	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// TestRankingPermutationInvariant: the HEAD_SELECT winner must not
// depend on the order candidates are presented in.
func TestRankingPermutationInvariant(t *testing.T) {
	src := rng.New(99)
	f := func(seed uint64, n uint8) bool {
		count := int(n%12) + 2
		local := rng.New(seed)
		pos := make(map[radio.NodeID]geom.Point, count)
		ids := make([]radio.NodeID, count)
		for i := 0; i < count; i++ {
			x, y := local.InDisk(25)
			ids[i] = radio.NodeID(i)
			pos[radio.NodeID(i)] = geom.Point{X: x, Y: y}
		}
		at := func(id radio.NodeID) geom.Point { return pos[id] }
		best1, ok1 := BestCandidate(geom.Point{}, 0.3, ids, at)

		shuffled := append([]radio.NodeID(nil), ids...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		best2, ok2 := BestCandidate(geom.Point{}, 0.3, shuffled, at)
		return ok1 == ok2 && best1 == best2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRankingTotalOrder: the ranking is a strict total order — ranked
// output is sorted and contains every input exactly once.
func TestRankingTotalOrder(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%15) + 1
		local := rng.New(seed)
		pos := make(map[radio.NodeID]geom.Point, count)
		ids := make([]radio.NodeID, count)
		for i := 0; i < count; i++ {
			x, y := local.InDisk(25)
			ids[i] = radio.NodeID(i)
			pos[radio.NodeID(i)] = geom.Point{X: x, Y: y}
		}
		ranked := rankCandidates(geom.Point{X: 1, Y: 2}, 0.7, ids, func(id radio.NodeID) geom.Point { return pos[id] })
		if len(ranked) != count {
			return false
		}
		seen := map[radio.NodeID]bool{}
		for i, r := range ranked {
			if seen[r.ID] {
				return false
			}
			seen[r.ID] = true
			if i > 0 && rankKeyCmp(r, ranked[i-1]) < 0 {
				return false // out of order
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRankingDistanceDominates: a strictly closer node always outranks
// a farther one, regardless of angles (d has highest significance).
func TestRankingDistanceDominates(t *testing.T) {
	f := func(theta1, theta2 float64, d1, d2 uint8) bool {
		if math.IsNaN(theta1) || math.IsNaN(theta2) {
			return true
		}
		r1 := float64(d1%20) + 1
		r2 := r1 + float64(d2%20) + 1 // strictly farther
		pos := map[radio.NodeID]geom.Point{
			1: geom.Point{}.Add(geom.UnitAt(theta1).Scale(r1)),
			2: geom.Point{}.Add(geom.UnitAt(theta2).Scale(r2)),
		}
		best, ok := BestCandidate(geom.Point{}, 0, []radio.NodeID{1, 2}, func(id radio.NodeID) geom.Point { return pos[id] })
		return ok && best == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNeighborILsFormLattice: from any head IL and parent IL one cell
// apart, every generated neighbor IL is exactly √3R away and the three
// forward ILs are mutually √3R apart or 2·√3R·sin(60°) apart — lattice
// geometry regardless of orientation.
func TestNeighborILsFormLattice(t *testing.T) {
	cfg := testConfig()
	f := func(theta float64, px, py int16) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		parent := geom.Point{X: float64(px), Y: float64(py)}
		il := parent.Add(geom.UnitAt(theta).Scale(cfg.HeadSpacing()))
		ils := NeighborILs(cfg, il, parent, false)
		if len(ils) != 3 {
			return false
		}
		for _, p := range ils {
			if math.Abs(p.Dist(il)-cfg.HeadSpacing()) > 1e-6 {
				return false
			}
		}
		// Consecutive forward ILs are one lattice edge apart.
		if math.Abs(ils[0].Dist(ils[1])-cfg.HeadSpacing()) > 1e-6 {
			return false
		}
		if math.Abs(ils[1].Dist(ils[2])-cfg.HeadSpacing()) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSearchSectorContainsItsILs: every candidate IL of a head lies
// inside (the closure of) that head's search sector — otherwise
// HEAD_SELECT could select heads it cannot talk to.
func TestSearchSectorContainsItsILs(t *testing.T) {
	cfg := testConfig()
	f := func(theta float64, px, py int16) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		parent := geom.Point{X: float64(px), Y: float64(py)}
		il := parent.Add(geom.UnitAt(theta).Scale(cfg.HeadSpacing()))
		sector := SearchSector(cfg, il, parent, false)
		for _, p := range NeighborILs(cfg, il, parent, false) {
			if !sector.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConfigDerivedQuantitiesConsistent: for any valid (R, Rt) the
// derived bounds nest correctly.
func TestConfigDerivedQuantitiesConsistent(t *testing.T) {
	f := func(r16, rt16 uint16) bool {
		r := float64(r16%1000) + 1
		rt := math.Mod(float64(rt16), r) + 0.001
		cfg := DefaultConfig(r)
		cfg.Rt = rt
		if cfg.Validate() != nil {
			return true
		}
		if cfg.NeighborDistMin() >= cfg.NeighborDistMax() {
			return false
		}
		if cfg.SearchRadius() <= cfg.HeadSpacing() {
			return false
		}
		if cfg.CellRadiusBound() <= cfg.R {
			return false
		}
		if cfg.Alpha() <= 0 || cfg.Alpha() >= math.Pi/2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
