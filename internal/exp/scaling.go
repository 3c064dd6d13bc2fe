package exp

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/radio"
	"gs3/internal/runner"
	"gs3/internal/stats"
)

// PerNodeState reproduces Appendix 1 row 1: the information maintained
// at each node is a constant number of node identities (θ(log n) bits),
// irrespective of network size. For each region radius it configures a
// network and reports n, the mean and maximum number of identities a
// node stores, split by role. Each radius is one independent trial on
// the pool; rows come back in radius order.
func PerNodeState(p runner.Pool, r float64, regionRadii []float64, seed uint64) (Table, error) {
	t := Table{
		ID:      "T1",
		Title:   "Per-node state vs network size",
		Columns: []string{"n", "headMeanIDs", "headMaxIDs", "assocIDs"},
		Notes: []string{
			"identities stored: head = parent + children + neighbor heads; associate = its head",
			"paper: constant per node, so theta(log n) bits",
		},
	}
	rows, err := runner.Map(p, len(regionRadii), func(i int) ([]float64, error) {
		opt := netsim.DefaultOptions(r, regionRadii[i])
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		if _, err := s.Configure(); err != nil {
			return nil, err
		}
		snap := s.Net.Snapshot()
		var headIDs []float64
		maxIDs := 0.0
		for _, v := range snap.Nodes {
			if !v.IsHead() {
				continue
			}
			ids := 1 + len(v.Children) + len(v.Neighbors) // parent + rest
			headIDs = append(headIDs, float64(ids))
			if float64(ids) > maxIDs {
				maxIDs = float64(ids)
			}
		}
		return []float64{
			float64(len(snap.Nodes)), stats.Mean(headIDs), maxIDs, 1,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// StaticConvergence reproduces Appendix 1 row 4 / Theorem 4: the
// GS³-S self-configuration completes in θ(D_b) where D_b is the
// distance from the big node to the farthest small node. It reports
// the virtual configuration time per region radius and the linear fit.
// Radii run as independent trials on the pool.
func StaticConvergence(p runner.Pool, r float64, regionRadii []float64, seed uint64) (Table, stats.Fit, error) {
	t := Table{
		ID:      "T4",
		Title:   "Static self-configuration time vs network radius (theta(Db))",
		Columns: []string{"Db", "time", "n"},
	}
	rows, err := runner.Map(p, len(regionRadii), func(i int) ([]float64, error) {
		radius := regionRadii[i]
		opt := netsim.DefaultOptions(r, radius)
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		elapsed, err := s.Configure()
		if err != nil {
			return nil, err
		}
		return []float64{radius, elapsed, float64(s.Net.Medium().Count())}, nil
	})
	if err != nil {
		return Table{}, stats.Fit{}, err
	}
	t.Rows = rows
	// Fit inputs are read back from the collected rows rather than
	// accumulated in closure-shared slices, so the builder has no
	// cross-trial aliasing whatever the worker count.
	fit, err := stats.LinearFit(t.Column(0), t.Column(1))
	if err != nil {
		return Table{}, stats.Fit{}, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("linear fit: time = %.4g*Db %+.4g (R2=%.4f)", fit.Slope, fit.Intercept, fit.R2))
	return t, fit, nil
}

// RegionRadiusFor returns the deployment disk radius that yields
// approximately target nodes on the default triangular grid with the
// given spacing (each grid node covers an area of spacing²·√3/2).
func RegionRadiusFor(target int, spacing float64) float64 {
	area := float64(target) * spacing * spacing * math.Sqrt(3) / 2
	return math.Sqrt(area / math.Pi)
}

// ConfigureScaling is experiment N1: configuration cost versus network
// size on node-count targets rather than radii, run through the serial
// diffusing computation (every reported value is deterministic). For
// each target it reports the actual node count, the deployment radius
// Db, the virtual configure time, the head count, and the configuration
// broadcasts per node — the paper's locality claim (O(1) messages per
// node) checked at scales far past the paper's. Targets run
// sequentially: each trial is large.
func ConfigureScaling(r float64, targets []int, seed uint64) (Table, error) {
	t := Table{
		ID:      "N1",
		Title:   "Configuration vs node count",
		Columns: []string{"n", "Db", "time", "heads", "bootup", "broadcastsPerNode"},
	}
	for _, target := range targets {
		opt := netsim.DefaultOptions(r, RegionRadiusFor(target, netsim.DefaultOptions(r, 1).GridSpacing))
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return Table{}, err
		}
		elapsed, err := s.Configure()
		if err != nil {
			return Table{}, err
		}
		snap := s.Net.Snapshot()
		heads, bootup := 0, 0
		for _, v := range snap.Nodes {
			switch {
			case v.IsHead():
				heads++
			case v.Status == core.StatusBootup:
				bootup++
			}
		}
		n := float64(s.Net.Medium().Count())
		t.Rows = append(t.Rows, []float64{
			n,
			opt.RegionRadius,
			elapsed,
			float64(heads),
			float64(bootup),
			float64(s.Net.Medium().Stats().Broadcasts) / n,
		})
	}
	return t, nil
}

// SweepScaling is experiment N2: steady-state maintenance and healing
// cost versus network size. For each node-count target it configures
// the field, settles the structure under maintenance, warms up for two
// boundary-rescan cycles, then reports the mean wall-clock cost of the
// next three settled maintenance rounds, the live heap, and the cost
// of healing a two-search-radius disaster: virtual rounds and wall
// seconds until the structure re-stabilizes, and the radio messages
// the healing took.
// Wall-clock columns vary with the host; the protocol columns (n,
// healRounds, healMsgs) do not. Targets run sequentially — each trial
// is large.
func SweepScaling(r float64, targets []int, budget int, seed uint64) (Table, error) {
	t := Table{
		ID:      "N2",
		Title:   "Maintenance and healing vs node count",
		Columns: []string{"n", "settleRounds", "roundMs", "heapMB", "killed", "healRounds", "healMs", "healMsgsPerKilled"},
		Notes: []string{
			"roundMs times three settled rounds after a two-boundary-rescan-cycle warm-up (not part of settleRounds)",
			"disaster: KillDisk of radius 2*SR at (regionRadius/2, 0) on the settled structure",
			"healMsgsPerKilled is the excess over the field's measured per-round background traffic",
			"roundMs/healMs are wall clock (host-dependent); crater repair is message-local (excess ~0 at every scale)",
			"healRounds counts to the full dynamic fixpoint, which includes min-hop re-convergence across the crater's routing shadow — that grows with field radius, not crater size",
		},
	}
	for _, target := range targets {
		opt := netsim.DefaultOptions(r, RegionRadiusFor(target, netsim.DefaultOptions(r, 1).GridSpacing))
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return Table{}, err
		}
		if _, err := s.Configure(); err != nil {
			return Table{}, err
		}
		s.Net.StartMaintenance(core.VariantD)
		// Settle to the full dynamic fixpoint — not the cheap stability
		// predicate — then a few more rounds so every sweep cache is
		// recorded. Anything less and the healing window below would
		// also absorb the tail of the field's own global convergence,
		// inflating healRounds with n.
		settleStart := s.Net.Engine().Now()
		if _, err := s.RunToFixpoint(check.Dynamic, budget); err != nil {
			return Table{}, err
		}
		s.RunSweeps(3)
		settleRounds := (s.Net.Engine().Now() - settleStart) / opt.Config.HeartbeatInterval
		// Warm up for two boundary-rescan cycles before timing: the
		// first rescan-due round after settling records that sweep-cache
		// flavour with a full HEAD_ORG at every head, so timing it would
		// measure HEAD_ORG rather than the settled round.
		s.RunSweeps(2 * opt.Config.BoundaryRescanEvery)

		const timedRounds = 3
		timedStats := s.Net.Medium().Stats()
		wallStart := time.Now()
		s.RunSweeps(timedRounds)
		roundMs := float64(time.Since(wallStart).Milliseconds()) / timedRounds
		// Background radio traffic of one settled round (boundary
		// rescans etc.), measured so the healing column can report the
		// *excess* messages the repair cost rather than the whole
		// field's steady-state chatter over the healing window.
		timedDelta := s.Net.Medium().Stats().Sub(timedStats)
		baseline := float64(timedDelta.Broadcasts+timedDelta.Unicasts) / timedRounds

		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		heapMB := float64(mem.HeapAlloc) / (1 << 20)

		c := geom.Point{X: opt.RegionRadius / 2}
		preStats := s.Net.Medium().Stats()
		preNow := s.Net.Engine().Now()
		healStart := time.Now()
		killed := s.KillDisk(c, 2*opt.Config.SearchRadius())
		// Healing must be judged by the full dynamic fixpoint, not the
		// cheap stability predicate: orphaned associates keep their role
		// bits until a sweep notices the dead head, so the quick check
		// would report an instant (vacuous) recovery.
		if _, err := s.RunToFixpoint(check.Dynamic, budget); err != nil {
			return Table{}, err
		}
		healMs := float64(time.Since(healStart).Milliseconds())
		healRounds := (s.Net.Engine().Now() - preNow) / opt.Config.HeartbeatInterval
		post := s.Net.Medium().Stats().Sub(preStats)
		healMsgs := float64(post.Broadcasts+post.Unicasts) - baseline*healRounds
		if healMsgs < 0 {
			healMsgs = 0
		}

		n := float64(s.Net.Medium().Count())
		perKilled := 0.0
		if killed > 0 {
			perKilled = healMsgs / float64(killed)
		}
		t.Rows = append(t.Rows, []float64{
			n + float64(killed), // deployed size (Count excludes the dead)
			settleRounds,
			roundMs,
			heapMB,
			float64(killed),
			healRounds,
			healMs,
			perKilled,
		})
	}
	return t, nil
}

// MessageLocality reports, for the same configured networks, the radio
// traffic per node during configuration — evidence that configuration
// costs O(1) messages per node regardless of scale (the local
// coordination claim of §3.3.4). Radii run as independent trials on
// the pool.
func MessageLocality(p runner.Pool, r float64, regionRadii []float64, seed uint64) (Table, error) {
	t := Table{
		ID:      "T1b",
		Title:   "Configuration traffic per node vs network size",
		Columns: []string{"n", "broadcastsPerNode", "repliesPerNode"},
	}
	rows, err := runner.Map(p, len(regionRadii), func(i int) ([]float64, error) {
		opt := netsim.DefaultOptions(r, regionRadii[i])
		opt.Seed = seed
		s, err := netsim.Build(opt)
		if err != nil {
			return nil, err
		}
		if _, err := s.Configure(); err != nil {
			return nil, err
		}
		n := float64(s.Net.Medium().Count())
		var st radio.Stats = s.Net.Medium().Stats()
		return []float64{
			n,
			float64(st.Broadcasts) / n,
			float64(s.Net.Metrics().ReplyMessages) / n,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}
