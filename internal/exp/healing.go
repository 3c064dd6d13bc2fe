package exp

import (
	"fmt"
	"math"
	"slices"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/runner"
	"gs3/internal/stats"
)

// PerturbationConvergence reproduces Appendix 1 row 3: convergence time
// under perturbations is O(D_p), the diameter of the contiguous
// perturbed area, independent of total network size. For each diameter
// it clears a disk of the configured network, repopulates it with fresh
// bootup nodes, and measures the virtual time until the structure is
// stable again. Diameters run as independent trials on the pool.
func PerturbationConvergence(p runner.Pool, r, regionRadius float64, diameters []float64, seed uint64) (Table, stats.Fit, error) {
	t := Table{
		ID:      "T3",
		Title:   "Healing time vs perturbed-area diameter (O(Dp))",
		Columns: []string{"Dp", "healTime", "killed"},
	}
	rows, err := runner.Map(p, len(diameters), func(i int) ([]float64, error) {
		dp := diameters[i]
		opt := netsim.DefaultOptions(r, regionRadius)
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		if _, err := s.Configure(); err != nil {
			return nil, err
		}
		s.Net.StartMaintenance(core.VariantD)
		s.RunSweeps(2)

		center := geom.Point{X: regionRadius / 3, Y: regionRadius / 5}
		healed := lostCells(s, center, dp/2)
		killed := s.KillDisk(center, dp/2)
		s.RepopulateDisk(center, dp/2, opt.GridSpacing)

		start := s.Net.Engine().Now()
		elapsed := -1.0
		for i := 0; i < 400; i++ {
			if healed() {
				elapsed = s.Net.Engine().Now() - start
				break
			}
			s.RunSweeps(1)
		}
		if elapsed < 0 {
			return nil, fmt.Errorf("Dp=%v: %w", dp, netsim.ErrNoConvergence)
		}
		return []float64{dp, elapsed, float64(killed)}, nil
	})
	if err != nil {
		return Table{}, stats.Fit{}, err
	}
	t.Rows = rows
	fit, err := stats.LinearFit(t.Column(0), t.Column(1))
	if err != nil {
		return Table{}, stats.Fit{}, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("linear fit: time = %.4g*Dp %+.4g (R2=%.4f)", fit.Slope, fit.Intercept, fit.R2))
	return t, fit, nil
}

// lostCells records the ILs of the cells that clearing the disk of
// radius r at center destroys, those of its non-big heads, and returns
// the test that the perturbation has healed: the structure is stable
// again (StableQuick) and every lost cell is re-headed, some head's IL
// within Rt of its own. Survivors re-attaching is not enough.
func lostCells(s *netsim.Sim, center geom.Point, r float64) (healed func() bool) {
	var lost []geom.Point
	for _, h := range s.Net.Snapshot().Heads() {
		if !h.IsBig && h.Pos.Dist(center) <= r {
			lost = append(lost, h.IL)
		}
	}
	rt := s.Net.Config().Rt
	return func() bool {
		if !s.StableQuick() {
			return false
		}
		heads := s.Net.Snapshot().Heads()
		for _, il := range lost {
			if !slices.ContainsFunc(heads, func(h core.NodeView) bool { return h.IL.Dist(il) <= rt }) {
				return false
			}
		}
		return true
	}
}

// ArbitraryStateConvergence reproduces Appendix 1 row 5 / Theorem 7:
// starting from a state-corrupted region of diameter D_c, the network
// re-reaches its invariant in O(D_c). Head ILs inside the disk are
// displaced; the time to stability is measured. Diameters run as
// independent trials on the pool.
func ArbitraryStateConvergence(p runner.Pool, r, regionRadius float64, diameters []float64, seed uint64) (Table, error) {
	t := Table{
		ID:      "T5",
		Title:   "Stabilization time vs corrupted-area diameter (O(Dc))",
		Columns: []string{"Dc", "stabilizeTime", "corruptedHeads"},
	}
	rows, err := runner.Map(p, len(diameters), func(i int) ([]float64, error) {
		dc := diameters[i]
		opt := netsim.DefaultOptions(r, regionRadius)
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		if _, err := s.Configure(); err != nil {
			return nil, err
		}
		s.Net.StartMaintenance(core.VariantD)
		s.RunSweeps(2)

		center := geom.Point{X: -regionRadius / 4, Y: regionRadius / 4}
		n := s.CorruptDisk(center, dc/2, core.CorruptIL, 3*opt.Config.Rt)
		elapsed, err := s.RunUntilStable(600)
		if err != nil {
			return nil, fmt.Errorf("Dc=%v: %w", dc, err)
		}
		return []float64{dc, elapsed, float64(n)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// StructureLifetime reproduces Appendix 1 row 2: intra-/inter-cell
// maintenance lengthens the lifetime of the head-level structure by
// Ω(n_c), the number of nodes per cell. For each deployment density it
// measures the virtual time until the live head count first drops below
// half of the initial count, with healing on, and compares it with the
// no-healing baseline E/(f·rate) where the first-generation heads
// simply die in place. Densities run as independent trials on the pool.
func StructureLifetime(p runner.Pool, r, regionRadius float64, spacings []float64, energy float64, seed uint64) (Table, error) {
	t := Table{
		ID:      "T2",
		Title:   "Structure lifetime: healing vs static heads (Omega(nc))",
		Columns: []string{"nc", "staticLifetime", "healedLifetime", "factor"},
		Notes: []string{
			"lifetime = time until live head count < 1/2 of initial",
			"static baseline: first-generation heads die at E/(f*rate) and nothing heals",
		},
	}
	// The paper's regime: serving as head dominates energy use (most
	// in-cell traffic terminates at the head), so rotating the role
	// spreads the cost over the whole cell.
	const headFactor = 80 // head drain = energy/5 per sweep
	idle := energy / 400  // associate drain per sweep
	staticLifetime := energy / (headFactor * idle)
	// 5 for any normal energy, but NaN for an energy of 0 and +Inf for
	// one so small that energy/400 underflows to 0, and the sweep budget
	// below converts it to int.
	if !(staticLifetime > 0) || math.IsInf(staticLifetime, 1) {
		return Table{}, fmt.Errorf("T2: energy %v gives a static lifetime of %v, want a finite positive one", energy, staticLifetime)
	}
	rows, err := runner.Map(p, len(spacings), func(i int) ([]float64, error) {
		opt := netsim.DefaultOptions(r, regionRadius)
		opt.Seed = seed
		opt.GridSpacing = spacings[i]
		opt.Config.InitialEnergy = energy
		opt.Config.AssociateDissipation = idle
		opt.Config.HeadEnergyFactor = headFactor
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		if _, err := s.Configure(); err != nil {
			return nil, err
		}
		nc := s.MeanCellSize()
		initialHeads := len(s.Net.Snapshot().Heads())

		s.Net.StartMaintenance(core.VariantD)
		start := s.Net.Engine().Now()
		deadline := int(staticLifetime*(nc+20)) + 50
		var healed float64
		for i := 0; i < deadline; i++ {
			s.RunSweeps(1)
			if len(s.Net.Snapshot().Heads()) < initialHeads/2 {
				break
			}
			healed = s.Net.Engine().Now() - start
		}
		return []float64{nc, staticLifetime, healed, healed / staticLifetime}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// SlideConsistency reproduces §4.3.5.1 item 3: under uniform node
// death, independent cell shifts slide the head-level structure as a
// whole while keeping the relative locations of neighboring heads
// consistent. It drains energy until a large share of cells have
// shifted and reports the neighbor-head distance statistics before and
// after — Corollary 1's band should still hold (up to the DI
// relaxation). A single-scenario experiment: it runs one trial
// regardless of the pool.
func SlideConsistency(r, regionRadius, energy float64, seed uint64) (Table, error) {
	opt := netsim.DefaultOptions(r, regionRadius)
	opt.Seed = seed
	opt.Config.InitialEnergy = energy
	opt.Config.AssociateDissipation = 1
	opt.Config.HeadEnergyFactor = 5
	s, err := netsim.Build(opt)
	if err != nil {
		return Table{}, err
	}
	if _, err := s.Configure(); err != nil {
		return Table{}, err
	}
	before := neighborDistStats(s)
	s.Net.StartMaintenance(core.VariantD)

	// Run until a good share of cells have shifted at least once.
	for i := 0; i < 400 && s.Net.Metrics().CellShifts < uint64(len(s.Net.Snapshot().Heads())); i++ {
		s.RunSweeps(1)
	}
	after := neighborDistStats(s)
	t := Table{
		ID:      "S1",
		Title:   "Neighbor-head distances before/after structure slide",
		Columns: []string{"phase", "mean", "p90", "max", "heads"},
		Notes: []string{
			fmt.Sprintf("cell shifts performed: %d; head shifts: %d", s.Net.Metrics().CellShifts, s.Net.Metrics().HeadShifts),
			"phase 0 = before slide, 1 = after; Corollary 1 band sqrt(3)R +/- 2Rt",
		},
	}
	t.Rows = append(t.Rows, []float64{0, before.Mean, before.P90, before.Max, float64(before.N)})
	t.Rows = append(t.Rows, []float64{1, after.Mean, after.P90, after.Max, float64(after.N)})
	return t, nil
}

func neighborDistStats(s *netsim.Sim) stats.Summary {
	snap := s.Net.Snapshot()
	heads := snap.Heads()
	var dists []float64
	for i, a := range heads {
		for _, b := range heads[i+1:] {
			if d := a.Pos.Dist(b.Pos); d <= s.Opt.Config.NeighborDistMax()+1e-9 {
				dists = append(dists, d)
			}
		}
	}
	return stats.Summarize(dists)
}

// HealingLocalityVsSize shows the locality half of the B1 comparison
// from the GS³ side: the structural impact radius of healing one head
// death does not grow with network size. Radii run as independent
// trials on the pool.
func HealingLocalityVsSize(p runner.Pool, r float64, regionRadii []float64, seed uint64) (Table, error) {
	t := Table{
		ID:      "T3b",
		Title:   "Healing impact radius vs network size (locality)",
		Columns: []string{"n", "impactRadius", "changedHeads"},
	}
	rows, err := runner.Map(p, len(regionRadii), func(i int) ([]float64, error) {
		radius := regionRadii[i]
		opt := netsim.DefaultOptions(r, radius)
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		if _, err := s.Configure(); err != nil {
			return nil, err
		}
		s.Net.StartMaintenance(core.VariantD)
		s.RunSweeps(2)

		var victim core.NodeView
		for _, h := range s.Net.Snapshot().Heads() {
			if !h.IsBig && h.Pos.Dist(geom.Point{}) < radius/2 {
				victim = h
				break
			}
		}
		before := s.Net.Snapshot()
		s.Net.Kill(victim.ID)
		if _, err := s.RunUntilStable(60); err != nil {
			return nil, err
		}
		after := s.Net.Snapshot()
		impact := 0.0
		changed := netsim.StructureDiff(before, after)
		for _, id := range changed {
			if id == victim.ID {
				continue
			}
			if v, ok := after.View(id); ok {
				if d := v.Pos.Dist(victim.Pos); d > impact {
					impact = d
				}
			}
		}
		return []float64{float64(s.Net.Medium().Count()), impact, float64(len(changed))}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}
