// Command gs3bench regenerates the paper's figures and tables. Each
// experiment prints rows directly comparable to what the paper reports;
// EXPERIMENTS.md records paper-vs-measured for each.
//
// Multi-row experiments fan their trials across a worker pool
// (internal/runner); the printed tables are byte-identical whatever the
// worker count, so -parallel/-seq change only the wall-clock time.
// Timing reports go to stderr, keeping stdout tables diffable across
// runs.
//
// Usage:
//
//	gs3bench -exp all          # every experiment (slow)
//	gs3bench -exp F7,F8        # just the Figure 7/8 curves
//	gs3bench -list             # list experiment IDs
//	gs3bench -exp all -parallel 8   # fan trials across 8 workers
//	gs3bench -exp all -seq          # force strictly serial trials
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gs3/internal/analysis"
	"gs3/internal/exp"
	"gs3/internal/profiling"
	"gs3/internal/runner"
)

type experiment struct {
	id   string
	desc string
	run  func(p runner.Pool, seed uint64, quick bool) (string, error)
}

// experiments returns the experiment registry. nodes parameterizes the
// N1/N2 scaling series: the largest target configured is nodes, with
// two smaller decades below it for the trend.
func experiments(nodes int) []experiment {
	return []experiment{
		{"N1", "configuration vs node count (largest target: -nodes)", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			targets := []int{nodes / 100, nodes / 10, nodes}
			if quick {
				targets = targets[:2]
			}
			kept := targets[:0]
			for _, n := range targets {
				if n >= 500 {
					kept = append(kept, n)
				}
			}
			t, err := exp.ConfigureScaling(100, kept, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"N2", "maintenance and healing vs node count (largest target: -nodes)", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			targets := []int{nodes / 100, nodes / 10, nodes}
			if quick {
				targets = targets[:2]
			}
			// The healing phase kills a disk of radius 2*SR; below ~10k
			// nodes the deployment disk itself is barely bigger than
			// that, so the disaster would engulf the field rather than
			// crater it. Keep only targets where the geometry is sane.
			kept := targets[:0]
			for _, n := range targets {
				if n >= 10000 {
					kept = append(kept, n)
				}
			}
			t, err := exp.SweepScaling(100, kept, 40, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"F7", "Figure 7: expected ratio of non-ideal cells vs Rt/R", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			trials := 200000
			if quick {
				trials = 20000
			}
			return exp.Figure7(10, 100, analysis.DefaultRatios(), trials, seed).Format(), nil
		}},
		{"F8", "Figure 8: expected diameter of an Rt-gap perturbed region vs Rt/R", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			trials := 200000
			if quick {
				trials = 20000
			}
			return exp.Figure8(10, 100, analysis.DefaultRatios(), trials, seed).Format(), nil
		}},
		{"F7b", "Rt-gap handling end to end: configure around a gap, absorb after fill", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			t, err := exp.GapResilience(100, 400, 80, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"T1", "Appendix 1 row 1: per-node state is constant", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			radii := []float64{300, 500, 700}
			if quick {
				radii = []float64{300, 500}
			}
			t, err := exp.PerNodeState(p, 100, radii, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"T1b", "local coordination: configuration traffic per node is constant", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			radii := []float64{300, 500, 700}
			if quick {
				radii = []float64{300, 500}
			}
			t, err := exp.MessageLocality(p, 100, radii, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"T2", "Appendix 1 row 2: lifetime lengthened by Omega(nc)", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			spacings := []float64{30, 22, 16}
			if quick {
				spacings = []float64{30, 18}
			}
			t, err := exp.StructureLifetime(p, 100, 260, spacings, 40, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"T3", "Appendix 1 row 3: healing time is O(Dp)", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			diams := []float64{170, 300, 450, 600}
			if quick {
				diams = []float64{170, 400, 600}
			}
			t, _, err := exp.PerturbationConvergence(p, 100, 700, diams, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"T3b", "healing impact radius independent of network size", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			radii := []float64{400, 600, 800}
			if quick {
				radii = []float64{400, 600}
			}
			t, err := exp.HealingLocalityVsSize(p, 100, radii, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"T4", "Appendix 1 row 4: static configuration time is theta(Db)", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			radii := []float64{300, 450, 600, 750}
			if quick {
				radii = []float64{300, 450, 600}
			}
			t, _, err := exp.StaticConvergence(p, 100, radii, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"T5", "Appendix 1 row 5: stabilization from corrupted state is O(Dc)", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			diams := []float64{150, 300, 450}
			if quick {
				diams = []float64{150, 300}
			}
			t, err := exp.ArbitraryStateConvergence(p, 100, 500, diams, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"S1", "structure slides as a whole under uniform death", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			t, err := exp.SlideConsistency(100, 300, 60, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"M1", "Theorem 11: big-node move impact contained in sqrt(3)d/2", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			moves := []float64{1, 1.5, 2, 2.5}
			if quick {
				moves = []float64{1.5, 2.5}
			}
			t, err := exp.BigMoveLocality(p, 100, 500, moves, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"B1", "GS3 vs LEACH: radius control and healing cost", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			radii := []float64{300, 450, 600}
			if quick {
				radii = []float64{300, 450}
			}
			t, err := exp.VsLEACH(p, 100, radii, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"B2", "GS3 vs hop-bounded clustering: radius spread and overlap", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			t, err := exp.VsHopCluster(100, 400, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"C1", "frequency reuse: channels per clustering scheme", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			t, err := exp.FrequencyReuse(100, 400, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"A1", "ablation: radius tolerance Rt vs structure tightness", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			ratios := []float64{0.1, 0.15, 0.25, 0.4}
			if quick {
				ratios = []float64{0.15, 0.4}
			}
			t, err := exp.RtSweep(p, 100, 350, ratios, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"A2", "ablation: boundary-rescan period vs healing latency", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			periods := []int{2, 5, 8}
			if quick {
				periods = []int{2, 8}
			}
			t, err := exp.RescanPeriodAblation(p, 100, 500, periods, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"R1", "robustness: convergence probability and healing time vs message loss", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			rates := []float64{0, 0.05, 0.1, 0.2, 0.3}
			trials, budget := 16, 120
			if quick {
				rates = []float64{0, 0.2}
				trials = 6
			}
			t, err := exp.Robustness(p, 100, 250, rates, trials, budget, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"R2", "disaster recovery: healing time and message overhead vs blast radius", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			radii := []float64{60, 120, 180}
			trials, budget := 8, 80
			if quick {
				radii = []float64{60, 150}
				trials = 3
			}
			t, err := exp.DisasterSweep(p, 100, 300, radii, trials, budget, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"ADV", "adversarial daemon vs random daemon: worst-case healing matrix", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			scenarios := exp.AdversaryScenarios(100, 300)
			draws := 4
			if quick {
				scenarios = scenarios[:2]
				draws = 2
			}
			t, err := exp.AdversaryMatrix(p, scenarios, draws, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"D1", "data plane: delivery ratio, latency, head energy vs loss x churn", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			rates := []float64{0, 0.1, 0.3}
			packets := 200000
			if quick {
				packets = 20000
			}
			t, err := exp.DataPlane(p, 10, 60, rates, packets, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"D1b", "data gathering under loss: GS3 convergecast vs LEACH rounds", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			rates := []float64{0, 0.1, 0.3}
			packets := 50000
			if quick {
				packets = 5000
			}
			t, err := exp.DataGatherVsLEACH(p, 10, 60, rates, packets, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
		{"A3", "ablation: heartbeat interval vs head-death masking latency", func(p runner.Pool, seed uint64, quick bool) (string, error) {
			intervals := []float64{0.5, 1, 2}
			if quick {
				intervals = []float64{0.5, 2}
			}
			t, err := exp.HeartbeatAblation(p, 100, 350, intervals, seed)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gs3bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) (retErr error) {
	fs := flag.NewFlagSet("gs3bench", flag.ContinueOnError)
	var (
		which    = fs.String("exp", "all", "comma-separated experiment IDs, or \"all\"")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		seed     = fs.Uint64("seed", 7, "random seed")
		quick    = fs.Bool("quick", false, "smaller parameter sweeps")
		nodes    = fs.Int("nodes", 100000, "largest node-count target for the N1/N2 scaling series")
		parallel = fs.Int("parallel", 0, "trial workers per experiment (0 = GOMAXPROCS)")
		seq      = fs.Bool("seq", false, "run trials strictly serially (same output, slower)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	exps := experiments(*nodes)
	if *list {
		for _, e := range exps {
			fmt.Fprintf(out, "%-5s %s\n", e.id, e.desc)
		}
		return nil
	}
	pool := runner.Parallel(*parallel)
	if *seq {
		pool = runner.Seq
	}
	want := map[string]bool{}
	all := *which == "all"
	if !all {
		for _, id := range strings.Split(*which, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	ran := 0
	wallStart := time.Now()
	for _, e := range exps {
		if !all && !want[e.id] {
			continue
		}
		expStart := time.Now()
		text, err := e.run(pool, *seed, *quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(out, text)
		fmt.Fprintf(os.Stderr, "# timing: %-4s %v\n", e.id, time.Since(expStart).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches %q (use -list)", *which)
	}
	mode := fmt.Sprintf("parallel=%d", pool.Workers)
	if pool.Workers <= 0 {
		mode = "parallel=GOMAXPROCS"
	}
	if *seq {
		mode = "seq"
	}
	fmt.Fprintf(os.Stderr, "# timing: total %v across %d experiments (%s)\n",
		time.Since(wallStart).Round(time.Millisecond), ran, mode)
	return nil
}
