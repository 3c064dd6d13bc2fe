// Command gs3sim runs one GS³ scenario and reports the resulting
// structure: configure a deployment, optionally perturb it, verify the
// invariant, print statistics, and (optionally) write an SVG rendering.
//
// With -trials N it replicates the scenario N times with per-trial
// seeds derived from -seed (trial 0 keeps the base seed, so -trials 1
// reproduces the single run exactly), fanning the replicas across a
// worker pool. Reports print in trial order regardless of completion
// order; per-trial timing goes to stderr. SVG/JSON/trace output always
// comes from trial 0, the base-seed run.
//
// Usage examples:
//
//	gs3sim -region 500 -r 100
//	gs3sim -region 500 -r 100 -lambda 0.02
//	gs3sim -region 500 -kill-disk 150,80,120 -sweeps 40
//	gs3sim -region 400 -svg structure.svg
//	gs3sim -region 400 -trials 8              # 8 seed replicates in parallel
//	gs3sim -region 400 -trials 8 -parallel 1  # same reports, one at a time
//	gs3sim -region 400 -loss 0.2 -sweeps 40           # lossy radio
//	gs3sim -region 400 -loss 0.2 -chaos -sweeps 120   # chaos watchdog
//	gs3sim -region 400 -sweeps 20 -packets 50000              # data plane
//	gs3sim -region 400 -sweeps 20 -packets 50000 -p2p 0.3 -loss 0.1 -churn 50
//	gs3sim -region 300 -disaster 150,80,90 -disaster-at 4 -sweeps 30  # scheduled disaster
//	gs3sim -region 300 -obstacle "120,-80,160,-80,160,80,120,80" -sweeps 30
//	gs3sim -region 300 -sweeps 40 -energy 200 -energy-send 0.5,0.25   # battery death
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/profiling"
	"gs3/internal/render"
	"gs3/internal/runner"
	"gs3/internal/trace"
	"gs3/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gs3sim:", err)
		os.Exit(1)
	}
}

// scenario is one fully resolved gs3sim run: options plus the
// perturbation and reporting knobs. Each trial executes its own copy —
// scenarios share nothing, so replicas can run concurrently.
type scenario struct {
	opt         netsim.Options
	mobile      bool
	hasKill     bool
	killC       geom.Point
	killR       float64
	hasDisaster bool
	disC        geom.Point
	disR        float64
	disAt       float64
	sweeps      int
	chaos       bool
	packets     int
	rate        float64
	p2p         float64
	churn       int
	traceN      int
	svgPath     string
	dumpPath    string
	quiet       bool
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("gs3sim", flag.ContinueOnError)
	var (
		r        = fs.Float64("r", 100, "ideal cell radius R")
		rt       = fs.Float64("rt", 0, "radius tolerance Rt (default R/4)")
		region   = fs.Float64("region", 500, "deployment disk radius")
		lambda   = fs.Float64("lambda", 0, "Poisson density (nodes per unit-radius disk); 0 = grid deployment")
		spacing  = fs.Float64("spacing", 0, "grid spacing (default 0.9*Rt)")
		seed     = fs.Uint64("seed", 1, "random seed (base seed when -trials > 1)")
		sweeps   = fs.Int("sweeps", 0, "maintenance sweeps to run after configuring (enables GS3-D)")
		mobile   = fs.Bool("mobile", false, "run GS3-M instead of GS3-D maintenance")
		killDisk = fs.String("kill-disk", "", "kill all nodes in disk \"x,y,radius\" after configuring")
		disaster = fs.String("disaster", "", "schedule a disaster disk \"x,y,radius\" to strike mid-run")
		disAt    = fs.Float64("disaster-at", 5, "sweeps into the run at which -disaster strikes")
		obstacle = fs.String("obstacle", "", "polygonal obstacles \"x1,y1,x2,y2,...[;...]\": cleared of nodes and radio-occluding")
		energy   = fs.Float64("energy", 0, "initial per-node battery (0 = energy model off)")
		enSend   = fs.String("energy-send", "", "per-transmission drain \"broadcast,unicast\" (needs -energy)")
		loss     = fs.Float64("loss", 0, "per-delivery message loss probability [0,1)")
		dup      = fs.Float64("dup", 0, "per-delivery duplication probability [0,1)")
		jitter   = fs.Float64("jitter", 0, "delay jitter factor (delay scaled by up to 1+jitter)")
		boRate   = fs.Float64("blackout-rate", 0, "per-node per-sweep blackout start probability [0,1)")
		boSweeps = fs.Float64("blackout-sweeps", 3, "mean blackout duration in sweeps")
		chaos    = fs.Bool("chaos", false, "run the convergence watchdog over -sweeps instead of a fixed sweep count; exit nonzero on non-convergence")
		packets  = fs.Int("packets", 0, "route this many packets over the structure after -sweeps settle it (enables the data plane)")
		rate     = fs.Float64("traffic-rate", 500, "packet arrival rate (packets per virtual second) for -packets")
		p2p      = fs.Float64("p2p", 0, "fraction of -packets routed point-to-point geographic; rest convergecast")
		churn    = fs.Int("churn", 0, "random kill+join membership events, one per 2 heartbeats, during traffic")
		svgPath  = fs.String("svg", "", "write an SVG rendering of the final structure to this file")
		traceN   = fs.Int("trace", 0, "record protocol events and print the last N")
		dumpPath = fs.String("dump", "", "write the final snapshot as JSON to this file")
		quiet    = fs.Bool("q", false, "print only the one-line summary")
		trials   = fs.Int("trials", 1, "seed replicates of the scenario (seeds derived from -seed)")
		parallel = fs.Int("parallel", 0, "workers for -trials fan-out (0 = GOMAXPROCS)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", *trials)
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

	base := scenario{
		mobile:   *mobile,
		sweeps:   *sweeps,
		chaos:    *chaos,
		packets:  *packets,
		rate:     *rate,
		p2p:      *p2p,
		churn:    *churn,
		traceN:   *traceN,
		svgPath:  *svgPath,
		dumpPath: *dumpPath,
		quiet:    *quiet,
	}
	base.opt = netsim.DefaultOptions(*r, *region)
	base.opt.Seed = *seed
	base.opt.Faults = fault.Plan{
		Loss:           *loss,
		Dup:            *dup,
		Jitter:         *jitter,
		BlackoutRate:   *boRate,
		BlackoutSweeps: *boSweeps,
	}
	if base.chaos && base.sweeps <= 0 {
		return fmt.Errorf("-chaos needs a positive -sweeps budget")
	}
	if base.chaos && base.packets > 0 {
		return fmt.Errorf("-chaos and -packets are mutually exclusive: the watchdog and the traffic run both own the sweep schedule")
	}
	if base.packets <= 0 && (base.p2p != 0 || base.churn != 0) {
		return fmt.Errorf("-p2p/-churn need -packets")
	}
	if *rt > 0 {
		base.opt.Config.Rt = *rt
	}
	if *lambda > 0 {
		base.opt.GridSpacing = 0
		base.opt.Lambda = *lambda
	} else if *spacing > 0 {
		base.opt.GridSpacing = *spacing
	}
	if *killDisk != "" {
		c, radius, err := parseDisk(*killDisk)
		if err != nil {
			return err
		}
		base.hasKill = true
		base.killC, base.killR = c, radius
	}
	if *disaster != "" {
		c, radius, err := parseDisk(*disaster)
		if err != nil {
			return err
		}
		if base.sweeps <= 0 && base.packets <= 0 {
			return fmt.Errorf("-disaster needs -sweeps or -packets to run the clock")
		}
		base.hasDisaster = true
		base.disC, base.disR, base.disAt = c, radius, *disAt
	}
	if *obstacle != "" {
		obs, err := parsePolygons(*obstacle)
		if err != nil {
			return err
		}
		base.opt.Obstacles = obs
	}
	if *energy > 0 {
		base.opt.Config.InitialEnergy = *energy
	}
	if *enSend != "" {
		if *energy <= 0 {
			return fmt.Errorf("-energy-send needs -energy")
		}
		parts := strings.Split(*enSend, ",")
		if len(parts) != 2 {
			return fmt.Errorf("bad -energy-send %q: want broadcast,unicast", *enSend)
		}
		b, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		u, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -energy-send %q: want broadcast,unicast", *enSend)
		}
		base.opt.Config.BroadcastCost = b
		base.opt.Config.UnicastCost = u
	}

	if *trials == 1 {
		return base.run(os.Stdout)
	}

	pool := runner.Parallel(*parallel)
	reports, stats, err := runner.MapTimed(pool, *trials, func(i int) (string, error) {
		sc := base
		sc.opt.Seed = runner.TrialSeed(*seed, i)
		if i != 0 {
			// File and trace output belong to the base-seed trial only;
			// replicas report their summary lines.
			sc.svgPath, sc.dumpPath, sc.traceN = "", "", 0
		}
		var buf bytes.Buffer
		if err := sc.run(&buf); err != nil {
			return "", err
		}
		return buf.String(), nil
	})
	if err != nil {
		return err
	}
	for i, report := range reports {
		fmt.Printf("--- trial %d (seed %d) ---\n%s", i, runner.TrialSeed(*seed, i), report)
	}
	for _, tt := range stats.Trials {
		fmt.Fprintf(os.Stderr, "# timing: trial %d %v\n", tt.Trial, tt.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "# timing: wall %v, serial-equivalent %v, speedup %.2fx on %d workers\n",
		stats.Wall.Round(time.Millisecond), stats.Serial().Round(time.Millisecond),
		stats.Speedup(), stats.Workers)
	return nil
}

// run executes the scenario and writes its report to w. It is safe to
// call concurrently on distinct scenario values: each call builds a
// private simulation and touches nothing shared.
func (sc scenario) run(w io.Writer) error {
	s, err := netsim.Build(sc.opt)
	if err != nil {
		return err
	}
	if sc.traceN > 0 {
		s.Net.SetTracer(trace.NewLog(sc.traceN))
	}
	elapsed, err := s.Configure()
	if err != nil {
		return err
	}
	if !sc.quiet {
		fmt.Fprintf(w, "configured %d nodes in %.2f virtual seconds\n", s.Net.Medium().Count(), elapsed)
	}

	if sc.hasKill {
		variant := core.VariantD
		if sc.mobile {
			variant = core.VariantM
		}
		s.Net.StartMaintenance(variant)
		killed := s.KillDisk(sc.killC, sc.killR)
		if !sc.quiet {
			fmt.Fprintf(w, "killed %d nodes in disk (%.0f,%.0f) r=%.0f\n", killed, sc.killC.X, sc.killC.Y, sc.killR)
		}
	}
	if sc.hasDisaster {
		at := s.Net.Engine().Now() + sc.disAt*sc.opt.Config.HeartbeatInterval
		if err := s.ScheduleDisaster(netsim.Disaster{At: at, Center: sc.disC, Radius: sc.disR}); err != nil {
			return err
		}
	}
	var chaosErr error
	if sc.sweeps > 0 {
		variant := core.VariantD
		if sc.mobile {
			variant = core.VariantM
		}
		s.Net.StartMaintenance(variant)
		if sc.chaos {
			rep := s.RunChaos(check.Dynamic, 3, sc.sweeps)
			fmt.Fprintf(w, "chaos: converged=%v healTime=%.2f sweeps=%d violations=%d retries=%d\n",
				rep.Converged, rep.HealTime, rep.Sweeps, rep.Violations, rep.Retries)
			if !rep.Converged {
				chaosErr = fmt.Errorf("chaos: no convergence within %d sweeps (%w)", sc.sweeps, netsim.ErrNoConvergence)
			}
		} else {
			s.RunSweeps(sc.sweeps)
			if !sc.quiet {
				fmt.Fprintf(w, "ran %d maintenance sweeps (%s)\n", sc.sweeps, variant)
			}
		}
	}

	if sc.packets > 0 {
		// Maintenance (if -sweeps settled the structure) keeps running on
		// the same engine, so healing interleaves with packet hops.
		if sc.churn > 0 {
			s.StartChurn(2*sc.opt.Config.HeartbeatInterval, sc.churn)
		}
		plane, err := s.ServeTraffic(traffic.Config{
			Packets:     sc.packets,
			Rate:        sc.rate,
			P2PFraction: sc.p2p,
		})
		if err != nil {
			return err
		}
		rep := plane.Run()
		fmt.Fprintf(w, "traffic: generated=%d delivered=%d ratio=%.4f lost: noroute=%d hopfail=%d ttl=%d expired=%d\n",
			rep.Generated, rep.Delivered, rep.DeliveryRatio,
			rep.LostNoRoute, rep.LostHopFail, rep.LostTTL, rep.Expired)
		fmt.Fprintf(w, "traffic: latency p50=%.3f p99=%.3f p999=%.3f max=%.3f hops mean=%.2f max=%.0f detours=%d retries=%d\n",
			rep.LatencyP50, rep.LatencyP99, rep.LatencyP999, rep.LatencyMax,
			rep.MeanHops, rep.MaxHops, rep.Detours, rep.Retries)
		fmt.Fprintf(w, "traffic: heads=%d forwards=%d fwdPerHead=%.2f headEnergy=%.0f maxHeadEnergy=%.0f\n",
			rep.HeadsUsed, rep.Forwards, rep.MeanHeadForwards, rep.HeadEnergy, rep.MaxHeadEnergy)
	}

	if sc.hasDisaster {
		for _, d := range s.Disasters() {
			fmt.Fprintf(w, "disaster: at=%.2f center=(%.0f,%.0f) r=%.0f killed=%d\n",
				d.At, d.Center.X, d.Center.Y, d.Radius, d.Killed)
		}
	}

	snap := s.Net.Snapshot()
	st := check.Stats(snap)
	mode := check.Static
	if sc.sweeps > 0 || sc.hasKill {
		mode = check.Dynamic
	}
	inv := check.Invariant(snap, mode)

	fmt.Fprintf(w, "nodes=%d heads=%d associates=%d bootup=%d ilDeviationMax=%.1f invariantOK=%v\n",
		len(snap.Nodes), st.Heads, st.Associates, st.Bootup, st.MaxILDeviation, inv.OK())
	if !sc.quiet {
		for i, v := range inv.Violations {
			if i >= 10 {
				fmt.Fprintf(w, "  ... and %d more violations\n", len(inv.Violations)-10)
				break
			}
			fmt.Fprintf(w, "  violation: %v\n", v)
		}
		m := s.Net.Metrics()
		fmt.Fprintf(w, "actions: headOrgs=%d headsSelected=%d headShifts=%d cellShifts=%d abandonments=%d sanityRetreats=%d\n",
			m.HeadOrgs, m.HeadsSelected, m.HeadShifts, m.CellShifts, m.Abandonments, m.SanityRetreats)
		rs := s.Net.Medium().Stats()
		fmt.Fprintf(w, "radio: broadcasts=%d unicasts=%d deliveries=%d\n", rs.Broadcasts, rs.Unicasts, rs.Deliveries)
		if len(sc.opt.Obstacles) > 0 {
			fmt.Fprintf(w, "obstacles: polygons=%d occlusionBlocks=%d\n", len(sc.opt.Obstacles), rs.OcclusionBlocks)
		}
		if sc.opt.Config.InitialEnergy > 0 {
			minE, sumE, small := 0.0, 0.0, 0
			for _, v := range snap.Nodes {
				if v.IsBig {
					continue
				}
				if small == 0 || v.Energy < minE {
					minE = v.Energy
				}
				sumE += v.Energy
				small++
			}
			meanE := 0.0
			if small > 0 {
				meanE = sumE / float64(small)
			}
			fmt.Fprintf(w, "energy: alive=%d min=%.2f mean=%.2f\n", small, minE, meanE)
		}
		if sc.opt.Faults.Active() {
			fmt.Fprintf(w, "faults: drops=%d dups=%d blackouts=%d blackoutDrops=%d retries=%d\n",
				rs.FaultDrops, rs.FaultDups, rs.Blackouts, rs.BlackoutDrops, rs.Retries)
		}
	}

	if sc.traceN > 0 {
		if l := s.Net.Tracer(); l != nil {
			fmt.Fprintf(w, "--- last %d protocol events (%d dropped) ---\n%s", l.Len(), l.Dropped(), l.Dump())
		}
	}

	if sc.svgPath != "" {
		svg := render.SVG(snap, render.DefaultOptions())
		if err := os.WriteFile(sc.svgPath, []byte(svg), 0o644); err != nil {
			return fmt.Errorf("write svg: %w", err)
		}
		if !sc.quiet {
			fmt.Fprintf(w, "wrote %s\n", sc.svgPath)
		}
	}
	if sc.dumpPath != "" {
		data, err := json.MarshalIndent(snap, "", " ")
		if err != nil {
			return fmt.Errorf("encode snapshot: %w", err)
		}
		if err := os.WriteFile(sc.dumpPath, data, 0o644); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
		if !sc.quiet {
			fmt.Fprintf(w, "wrote %s\n", sc.dumpPath)
		}
	}
	return chaosErr
}

// parsePolygons parses semicolon-separated polygons, each a flat
// comma-separated list of at least three x,y vertex pairs.
func parsePolygons(s string) ([]field.Obstacle, error) {
	var out []field.Obstacle
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nums := strings.Split(part, ",")
		if len(nums) < 6 || len(nums)%2 != 0 {
			return nil, fmt.Errorf("bad polygon %q: want x1,y1,x2,y2,... with at least 3 vertices", part)
		}
		pg := make(field.Obstacle, 0, len(nums)/2)
		for i := 0; i < len(nums); i += 2 {
			x, err1 := strconv.ParseFloat(strings.TrimSpace(nums[i]), 64)
			y, err2 := strconv.ParseFloat(strings.TrimSpace(nums[i+1]), 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad polygon vertex %q,%q", nums[i], nums[i+1])
			}
			pg = append(pg, geom.Point{X: x, Y: y})
		}
		out = append(out, pg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no polygons in %q", s)
	}
	return out, nil
}

func parseDisk(s string) (geom.Point, float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return geom.Point{}, 0, fmt.Errorf("bad disk %q: want x,y,radius", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Point{}, 0, fmt.Errorf("bad disk %q: %w", s, err)
		}
		vals[i] = v
	}
	return geom.Point{X: vals[0], Y: vals[1]}, vals[2], nil
}
