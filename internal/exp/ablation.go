package exp

import (
	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/runner"
	"gs3/internal/stats"
)

// RtSweep is ablation A1: how the radius tolerance Rt shapes the
// structure. The paper fixes Rt as the density guarantee ("with high
// probability every Rt-disk holds a node") and proves all bounds as
// functions of it; this sweep shows the bounds are live — looser Rt
// buys easier head selection at the price of wider cell-radius and
// neighbor-distance spreads. Ratios run as independent trials on the
// pool; every trial reuses the same seed so the swept parameter is the
// only thing that varies.
func RtSweep(p runner.Pool, r, regionRadius float64, ratios []float64, seed uint64) (Table, error) {
	t := Table{
		ID:      "A1",
		Title:   "Ablation: radius tolerance Rt vs structure tightness",
		Columns: []string{"Rt/R", "heads", "maxILDev", "cellRadiusP90", "neighborDistSpread"},
		Notes: []string{
			"maxILDev <= Rt (Corollary 2); neighborDistSpread = max-min over neighbor pairs <= 4Rt (Corollary 1)",
		},
	}
	rows, err := runner.Map(p, len(ratios), func(i int) ([]float64, error) {
		q := ratios[i]
		opt := netsim.DefaultOptions(r, regionRadius)
		opt.Seed = seed
		opt.Config.Rt = q * r
		opt.GridSpacing = opt.Config.Rt * 0.9
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		if _, err := s.Configure(); err != nil {
			return nil, err
		}
		st := check.Stats(s.Net.Snapshot())
		radii := stats.Summarize(st.CellRadii)
		nd := stats.Summarize(st.NeighborDists)
		return []float64{
			q, float64(st.Heads), st.MaxILDeviation, radii.P90, nd.Max - nd.Min,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// RescanPeriodAblation is ablation A2: the boundary-rescan period is
// the detection-latency term of the O(D_p) healing bound. Sweeping it
// shows healing time scales with the period while the structure's
// steady state is unaffected. Periods run as independent trials on the
// pool.
func RescanPeriodAblation(p runner.Pool, r, regionRadius float64, periods []int, seed uint64) (Table, error) {
	t := Table{
		ID:      "A2",
		Title:   "Ablation: boundary-rescan period vs healing latency",
		Columns: []string{"rescanEvery", "healTime", "headOrgsPerSweep"},
		Notes: []string{
			"same Dp=300 clear+repopulate perturbation for every row",
		},
	}
	rows, err := runner.Map(p, len(periods), func(i int) ([]float64, error) {
		period := periods[i]
		opt := netsim.DefaultOptions(r, regionRadius)
		opt.Seed = seed
		opt.Config.BoundaryRescanEvery = period
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
		healed := lostCells(s, center, 150)
		s.KillDisk(center, 150)
		s.RepopulateDisk(center, 150, opt.GridSpacing)

		orgsBefore := s.Net.Metrics().HeadOrgs
		start := s.Net.Engine().Now()
		elapsed := -1.0
		sweeps := 0
		for i := 0; i < 40*period; i++ {
			if healed() {
				elapsed = s.Net.Engine().Now() - start
				break
			}
			s.RunSweeps(1)
			sweeps++
		}
		if elapsed < 0 {
			elapsed = s.Net.Engine().Now() - start
		}
		orgRate := 0.0
		if sweeps > 0 {
			orgRate = float64(s.Net.Metrics().HeadOrgs-orgsBefore) / float64(sweeps)
		}
		return []float64{float64(period), elapsed, orgRate}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// HeartbeatAblation is ablation A3: the heartbeat interval is the
// failure-detection latency of intra-cell maintenance. Sweeping it
// shows head-death masking time scales with the interval. Intervals
// run as independent trials on the pool.
func HeartbeatAblation(p runner.Pool, r, regionRadius float64, intervals []float64, seed uint64) (Table, error) {
	t := Table{
		ID:      "A3",
		Title:   "Ablation: heartbeat interval vs head-death masking latency",
		Columns: []string{"interval", "maskTime"},
	}
	rows, err := runner.Map(p, len(intervals), func(i int) ([]float64, error) {
		interval := intervals[i]
		opt := netsim.DefaultOptions(r, regionRadius)
		opt.Seed = seed
		opt.Config.HeartbeatInterval = interval
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
			if !h.IsBig {
				victim = h
				break
			}
		}
		s.Net.Kill(victim.ID)
		start := s.Net.Engine().Now()
		masked := func() bool {
			for _, h := range s.Net.Snapshot().Heads() {
				if h.ID != victim.ID && h.IL.Dist(victim.IL) <= opt.Config.Rt {
					return true
				}
			}
			return false
		}
		elapsed := -1.0
		for i := 0; i < 200; i++ {
			if masked() {
				elapsed = s.Net.Engine().Now() - start
				break
			}
			e := s.Net.Engine()
			e.RunUntil(e.Now() + interval/4) // fine-grained probe
		}
		if elapsed < 0 {
			elapsed = s.Net.Engine().Now() - start
		}
		return []float64{interval, elapsed}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}
