package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/exp"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/radio"
	"gs3/internal/rng"
	"gs3/internal/traffic"
)

const (
	// cellRadius is the GS³ cell radius R every field uses (N1, N2).
	cellRadius = 100
	// settleBudget bounds the heartbeats from configure to the dynamic
	// fixpoint; healBudget bounds them from a strike to the fixpoint.
	settleBudget = 30
	healBudget   = 30
	// maintainRounds settled rounds are timed per maintain repetition,
	// then healStrikes craters strike, each 2·SR (N2).
	maintainRounds = 250
	healStrikes    = 3
	// trafficPackets are served per traffic repetition at trafficRate
	// packets per virtual second, a share p2pFraction point-to-point
	// (D1's mix).
	trafficPackets = 100_000
	trafficRate    = 20_000
	p2pFraction    = 0.3
	// drainDiameters sizes the traffic drain window in diameter
	// crossings at the diffusion speed, so that a packet still in
	// flight when it closes is a routing failure, not a short window.
	drainDiameters = 4
)

var errNoConvergence = errors.New("no dynamic fixpoint within the heartbeat budget")

// workload is one benchmark workload. run executes one repetition.
type workload struct {
	name    string
	nodes   int    // deployed nodes at scale 1 (about; the grid is jittered)
	why     string // why the workload is in the benchmark
	setup   string // what setup_s covers
	op      string // what one op_ms sample is
	attempt string // what attempted/failed count
	host    []hostMetric
	results []string // deterministic per-layer results printed in the report
	run     func(r *rep) error
}

// hostMetric is a workload's host-time result printed under its own
// name (rep.host[name] holds the samples).
type hostMetric struct{ name, unit, what string }

// hostMetrics lists the workload's host-time results: every workload
// configures a field, so every one reports the configure rate.
func (w *workload) hostMetrics() []hostMetric {
	return append([]hostMetric{{"configure_nodes_per_s", "nodes/s", "Sim.Configure calls"}}, w.host...)
}

var workloads = []*workload{
	{
		name:    "configure",
		nodes:   200_000,
		why:     "HEAD_ORG, radio range queries and broadcasts: the GS3-S configuration of a 200k-node field, no maintenance",
		setup:   "netsim.Build",
		op:      "serial Sim.Configure calls",
		attempt: "deployed nodes (failed: left in bootup)",
		results: []string{"configure_vtime_s", "configure_msgs_per_node"},
		run:     runConfigure,
	},
	{
		name:    "maintain",
		nodes:   50_000,
		why:     "settled GS3-D heartbeat rounds on a 50k-node field, the sweep-cache read path; then 2*SR craters healed to the dynamic fixpoint, the write path and the checker",
		setup:   "Build + Configure + settle to the dynamic fixpoint + warm-up",
		op:      "settled RunSweeps(1) rounds",
		attempt: "settled rounds and strikes (failed: rounds of a repetition that ended off the dynamic fixpoint, strikes not healed within the heartbeat budget)",
		host:    []hostMetric{{"round_ms", "ms", "settled rounds"}, {"heal_s", "s", "strikes, KillDisk to Fixpoint(Dynamic)"}},
		results: []string{"heal_rounds", "heal_msgs_per_killed", "netsim.killed"},
		run:     runMaintain,
	},
	{
		name:    "traffic",
		nodes:   20_000,
		why:     "open-loop Poisson packets over a settled 20k-node field, 30% point-to-point: per-hop routing, unicasts and engine events",
		setup:   "Build + Configure + settle to the dynamic fixpoint + warm-up",
		op:      "packets (Plane.Run host time / packets generated, per repetition)",
		attempt: "generated packets (failed: lost)",
		host:    []hostMetric{{"traffic_pkts_per_s", "pkts/s", "Plane.Run calls"}},
		results: []string{"latency_p50_vs", "latency_p999_vs", "traffic.hops_per_pkt", "traffic.detours"},
		run:     runTraffic,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// rep is one repetition of a workload: its host measurements, its
// deterministic results, and a digest of every simulated output.
type rep struct {
	cfg config
	tr  *tracer
	log hash.Hash64 // digest of simulated outputs

	nodes       int
	setup       time.Duration // host time of the untimed preparation
	configure   time.Duration // host time of Sim.Configure
	timed       time.Duration // host time of the timed phase
	ops         []float64     // op_ms samples
	heapPerNode float64

	layer   map[string]float64   // deterministic per-layer values
	host    map[string][]float64 // host-time samples by workload metric
	runtime map[string]float64   // allocation and GC figures

	attempted, failed int
	faults            []string
}

func newRep(cfg config, traced bool) *rep {
	return &rep{
		cfg:     cfg,
		tr:      &tracer{on: traced},
		log:     fnv.New64a(),
		layer:   map[string]float64{},
		host:    map[string][]float64{},
		runtime: map[string]float64{},
	}
}

func (r *rep) digest() uint64 { return r.log.Sum64() }

// record adds a simulated output to the digest. %+v prints floats in
// their shortest round-trip form, so the text is exact.
func (r *rep) record(label string, v any) {
	fmt.Fprintf(r.log, "%s %+v\n", label, v)
}

func (r *rep) faultf(format string, args ...any) {
	r.faults = append(r.faults, fmt.Sprintf(format, args...))
}

// options is the workload's field: a jittered triangular grid sized
// as N1 sizes it, made from the seed.
func (r *rep) options() netsim.Options {
	n := int(math.Round(float64(r.cfg.workload.nodes) * r.cfg.scale))
	spacing := netsim.DefaultOptions(cellRadius, 1).GridSpacing
	opt := netsim.DefaultOptions(cellRadius, exp.RegionRadiusFor(n, spacing))
	opt.Seed = r.cfg.seed
	return opt
}

// build runs netsim.Build and records the deployed node count.
func (r *rep) build(opt netsim.Options) (*netsim.Sim, error) {
	m0 := readMem()
	var s *netsim.Sim
	var err error
	r.tr.do("Build", func() { s, err = netsim.Build(opt) })
	if err != nil {
		return nil, err
	}
	r.nodes = s.Net.Medium().Count()
	r.runtime["runtime.allocs_per_node"] = float64(readMem().Mallocs-m0.Mallocs) / float64(r.nodes)
	return s, nil
}

// configureField runs Sim.Configure on a built field and records the
// configuration results every workload reports.
func (r *rep) configureField(s *netsim.Sim) error {
	m0 := readMem()
	var vt float64
	var err error
	r.configure = r.tr.do("Configure", func() { vt, err = s.Configure() })
	if err != nil {
		return err
	}
	m1 := readMem()
	r.runtime["runtime.allocs_per_node"] += float64(m1.Mallocs-m0.Mallocs) / float64(r.nodes)
	st, m := s.Net.Medium().Stats(), s.Net.Metrics()
	r.host["configure_nodes_per_s"] = append(r.host["configure_nodes_per_s"], float64(r.nodes)/r.configure.Seconds())
	r.layer["configure_vtime_s"] = vt
	r.layer["configure_msgs_per_node"] = float64(st.Broadcasts+st.Unicasts+m.ReplyMessages) / float64(r.nodes)
	r.record("configured", fmt.Sprint(r.nodes, vt, st, m, s.Net.Engine().Fired()))
	return nil
}

// setupSettled is the set-up of the maintain and traffic workloads: Build, Configure, start GS³-D, run to the dynamic
// fixpoint (checked once per heartbeat, as RunToFixpoint does), then
// warm up for two boundary-rescan cycles so both sweep-cache flavours
// are filled before anything is timed. It returns the per-round radio
// sends of the last warm-up cycle, the settled background traffic.
func (r *rep) setupSettled() (*netsim.Sim, float64, error) {
	opt := r.options()
	var s *netsim.Sim
	var err error
	var background float64
	r.setup = r.tr.do("setup", func() {
		if s, err = r.build(opt); err != nil {
			return
		}
		if err = r.configureField(s); err != nil {
			return
		}
		r.tr.do("settle", func() {
			s.Net.StartMaintenance(core.VariantD)
			rounds, ok := r.runToFixpoint(s, settleBudget)
			if !ok {
				err = fmt.Errorf("set-up: %w after %d heartbeats", errNoConvergence, rounds)
				return
			}
			cycle := opt.Config.BoundaryRescanEvery
			sweep := func() { s.RunSweeps(1) }
			for i := 0; i < cycle; i++ {
				r.tr.do("RunSweeps", sweep)
			}
			before := s.Net.Medium().Stats()
			for i := 0; i < cycle; i++ {
				r.tr.do("RunSweeps", sweep)
			}
			d := s.Net.Medium().Stats().Sub(before)
			background = float64(d.Broadcasts+d.Unicasts) / float64(cycle)
		})
	})
	if err != nil {
		return nil, 0, err
	}
	r.untimed(func() {
		r.verifyFixpoint(s, "end of set-up")
		r.measureHeap()
	})
	return s, background, nil
}

// runToFixpoint checks Fixpoint(Dynamic) on a fresh Snapshot once per
// heartbeat, running one heartbeat of sweeps after each failed check,
// until the fixpoint holds or budget heartbeats have run. It returns
// the heartbeats run.
func (r *rep) runToFixpoint(s *netsim.Sim, budget int) (rounds int, ok bool) {
	sweep := func() { s.RunSweeps(1) }
	for {
		if ok = r.fixpoint(s); ok || rounds == budget {
			return rounds, ok
		}
		r.tr.do("RunSweeps", sweep)
		rounds++
	}
}

// fixpoint snapshots the network and checks the dynamic fixpoint.
func (r *rep) fixpoint(s *netsim.Sim) bool {
	var snap core.Snapshot
	var res check.Result
	r.tr.do("Snapshot", func() { snap = s.Net.Snapshot() })
	r.tr.do("Fixpoint", func() { res = check.Fixpoint(snap, check.Dynamic) })
	return res.OK()
}

// verifyFixpoint is an untimed correctness check of a settled field.
func (r *rep) verifyFixpoint(s *netsim.Sim, when string) bool {
	ok := r.fixpoint(s)
	r.record("fixpoint "+when, ok)
	if !ok {
		r.faultf("dynamic fixpoint does not hold at %s", when)
	}
	return ok
}

// untimed runs fn outside set-up and the timed phase.
func (r *rep) untimed(fn func()) {
	if err := r.tr.untimed(fn); err != nil {
		r.faultf("%v", err)
	}
}

// measureHeap records the live heap per deployed node. Traced
// repetitions measure too, although only untraced ones are reported,
// so that both run their timed phase after the same collection.
func (r *rep) measureHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapPerNode = float64(m.HeapAlloc) / float64(r.nodes)
}

// timedPhase runs (part of) the workload's timed phase, adds its CPU
// time to the repetition's, and records the runtime allocation and GC
// figures over it, allocations per unit of work. It returns the CPU
// time of fn.
func (r *rep) timedPhase(units float64, unit string, fn func()) time.Duration {
	m0 := readMem()
	d := r.tr.do("timed", fn)
	m1 := readMem()
	r.timed += d
	if unit != "" {
		r.runtime["runtime.allocs_per_"+unit] = float64(m1.Mallocs-m0.Mallocs) / units
		if unit == "pkt" {
			r.runtime["runtime.bytes_per_pkt"] = float64(m1.TotalAlloc-m0.TotalAlloc) / units
		}
	}
	r.runtime["runtime.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
	r.runtime["runtime.gc_pause_ms"] += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return d
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// counters are the simulator's cumulative work counters.
type counters struct {
	fired, scheduled uint64
	stats            radio.Stats
	core             [len(coreCounters)]uint64
}

// coreCounters name the core.Metrics fields reported per layer.
var coreCounters = [...]string{"head_orgs", "heads_selected", "reply_msgs", "parent_seeks", "head_shifts", "cell_shifts", "promotions"}

func readCounters(s *netsim.Sim) counters {
	e, m := s.Net.Engine(), s.Net.Metrics()
	return counters{
		fired:     e.Fired(),
		scheduled: e.Scheduled(),
		stats:     s.Net.Medium().Stats(),
		core:      [...]uint64{m.HeadOrgs, m.HeadsSelected, m.ReplyMessages, m.ParentSeeks, m.HeadShifts, m.CellShifts, m.Promotions},
	}
}

// since returns the counts accumulated since before.
func (c counters) since(before counters) counters {
	d := counters{fired: c.fired - before.fired, scheduled: c.scheduled - before.scheduled, stats: c.stats.Sub(before.stats)}
	for i := range d.core {
		d.core[i] = c.core[i] - before.core[i]
	}
	return d
}

// plus returns the field-wise sum of two count deltas.
func (c counters) plus(d counters) counters {
	s := counters{fired: c.fired + d.fired, scheduled: c.scheduled + d.scheduled, stats: c.stats.Add(d.stats)}
	for i := range s.core {
		s.core[i] = c.core[i] + d.core[i]
	}
	return s
}

// recordCounts records the timed phase's counts as the repetition's
// per-layer counts and adds them to the digest.
func (r *rep) recordCounts(d counters) {
	fired, scheduled, st := float64(d.fired), float64(d.scheduled), d.stats
	r.layer["sim.events_fired"] = fired
	r.layer["sim.events_scheduled"] = scheduled
	r.layer["sim.fired_ratio"] = finite(fired / scheduled)
	r.layer["radio.range_queries"] = float64(st.RangeQueries)
	r.layer["radio.range_queries_per_node"] = float64(st.RangeQueries) / float64(r.nodes)
	r.layer["radio.broadcasts"] = float64(st.Broadcasts)
	r.layer["radio.unicasts"] = float64(st.Unicasts)
	r.layer["radio.deliveries"] = float64(st.Deliveries)
	for i, name := range coreCounters {
		r.layer["core."+name] = float64(d.core[i])
	}
	r.record("timed-phase counts", d)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ---- workloads ----

// runConfigure: set-up is Build; the timed phase is one serial
// Configure; verification checks the static invariant and that no node
// is left in bootup.
func runConfigure(r *rep) error {
	var s *netsim.Sim
	var err error
	r.setup = r.tr.do("setup", func() { s, err = r.build(r.options()) })
	if err != nil {
		return err
	}
	before := readCounters(s)
	r.timedPhase(0, "", func() { err = r.configureField(s) })
	if err != nil {
		return err
	}
	r.ops = append(r.ops, ms(r.configure))
	r.recordCounts(readCounters(s).since(before))
	r.untimed(func() {
		r.measureHeap()
		var snap core.Snapshot
		var res check.Result
		r.tr.do("Snapshot", func() { snap = s.Net.Snapshot() })
		r.tr.do("Invariant", func() { res = check.Invariant(snap, check.Static) })
		bootup := 0
		for _, v := range snap.Nodes {
			if v.Status == core.StatusBootup {
				bootup++
			}
		}
		r.attempted, r.failed = r.nodes, bootup
		r.record("verified", fmt.Sprint(len(res.Violations), bootup))
		if !res.OK() {
			r.faultf("static invariant violated after configure: %d violations, first %v", len(res.Violations), res.Violations[0])
		}
		if bootup > 0 {
			r.faultf("%d of %d nodes left in bootup after configure", bootup, r.nodes)
		}
	})
	return nil
}

// runMaintain: after set-up, times maintainRounds settled heartbeat
// rounds one by one and checks the fixpoint still holds; then strikes
// healStrikes craters one after the other, each timed from KillDisk
// until Fixpoint(Dynamic) holds, checked once per heartbeat. Between
// strikes the field re-settles for two rescan cycles, untimed.
func runMaintain(r *rep) error {
	s, background, err := r.setupSettled()
	if err != nil {
		return err
	}
	before := readCounters(s)
	sweep := func() { s.RunSweeps(1) }
	r.timedPhase(maintainRounds, "round", func() {
		for i := 0; i < maintainRounds; i++ {
			d := ms(r.tr.do("RunSweeps", sweep))
			r.ops = append(r.ops, d)
			r.host["round_ms"] = append(r.host["round_ms"], d)
		}
	})
	rounds := readCounters(s).since(before)
	r.layer["sim.events_per_round"] = float64(rounds.fired) / maintainRounds
	r.attempted = maintainRounds
	r.untimed(func() {
		if !r.verifyFixpoint(s, "end of the timed rounds") {
			r.failed = maintainRounds
		}
	})
	r.recordCounts(rounds.plus(r.strikes(s, background)))
	return nil
}

// craters draws the strike centres from the seed: healStrikes equally
// spaced bearings from a random start, each at a random 35–60% of the
// field radius, so 2·SR craters neither overlap nor reach the big node
// on a 50k-node field.
func craters(seed uint64, regionRadius float64) []geom.Point {
	src := rng.New(seed ^ 0x6372617465727321)
	start := src.Range(0, 2*math.Pi)
	out := make([]geom.Point, healStrikes)
	for k := range out {
		a := start + 2*math.Pi*float64(k)/healStrikes
		d := src.Range(0.35, 0.6) * regionRadius
		out[k] = geom.Point{X: d * math.Cos(a), Y: d * math.Sin(a)}
	}
	return out
}

// strikes runs the maintain workload's craters on a settled field and
// returns their summed counts. background is the settled per-round
// radio sends, which a heal's message count is measured against.
func (r *rep) strikes(s *netsim.Sim, background float64) counters {
	opt := s.Opt
	radius := 2 * opt.Config.SearchRadius()
	var counts counters
	var rounds, excess, killedTotal float64
	sweep := func() { s.RunSweeps(1) }
	for k, c := range craters(r.cfg.seed, opt.RegionRadius) {
		var killed, n int
		var ok bool
		before := readCounters(s)
		d := r.timedPhase(0, "", func() {
			r.tr.do("strike", func() {
				r.tr.do("KillDisk", func() { killed = s.KillDisk(c, radius) })
				n, ok = r.runToFixpoint(s, healBudget)
			})
		})
		strike := readCounters(s).since(before)
		counts = counts.plus(strike)
		sent := strike.stats
		r.host["heal_s"] = append(r.host["heal_s"], d.Seconds())
		r.attempted++
		r.layer["check.fixpoint_calls"] += float64(n + 1)
		rounds += float64(n)
		killedTotal += float64(killed)
		excess += max(0, float64(sent.Broadcasts+sent.Unicasts)-background*float64(n)) / float64(max(killed, 1))
		r.record(fmt.Sprintf("strike %d", k), fmt.Sprint(c, killed, n, ok, s.Net.Engine().Now(), sent))
		if !ok {
			r.failed++
			r.faultf("strike %d at %v (%d killed) not healed within %d heartbeats", k, c, killed, healBudget)
			continue
		}
		r.untimed(func() {
			for i := 0; i < 2*opt.Config.BoundaryRescanEvery; i++ {
				r.tr.do("RunSweeps", sweep)
			}
		})
	}
	r.layer["heal_rounds"] = rounds / healStrikes
	r.layer["heal_msgs_per_killed"] = excess / healStrikes
	r.layer["netsim.killed"] = killedTotal
	return counts
}

// runTraffic: after set-up, serves trafficPackets open-loop packets
// and checks that every packet is accounted for and none was lost —
// the field is settled and fault-free, and the drain window is sized
// from the field's diameter, so a loss is a routing failure.
func runTraffic(r *rep) error {
	s, _, err := r.setupSettled()
	if err != nil {
		return err
	}
	opt := s.Opt
	var plane *traffic.Plane
	r.untimed(func() {
		plane, err = s.ServeTraffic(traffic.Config{
			Packets:     trafficPackets,
			Rate:        trafficRate / opt.Config.HeartbeatInterval,
			P2PFraction: p2pFraction,
			Drain:       drainDiameters * 2 * opt.RegionRadius / opt.Radio.DiffusionSpeed,
		})
	})
	if err != nil {
		return err
	}
	before := readCounters(s)
	var report traffic.Report
	r.timedPhase(trafficPackets, "pkt", func() {
		r.tr.do("Plane.Run", func() { report = plane.Run() })
	})
	r.recordCounts(readCounters(s).since(before))
	r.record("traffic report", report)
	gen := float64(report.Generated)
	r.ops = append(r.ops, ms(r.timed)/gen)
	r.host["traffic_pkts_per_s"] = append(r.host["traffic_pkts_per_s"], gen/r.timed.Seconds())
	hops := math.Round(report.MeanHops * float64(report.Delivered))
	for k, v := range map[string]float64{
		"latency_p50_vs":            report.LatencyP50,
		"latency_p999_vs":           report.LatencyP999,
		"sim.events_per_pkt":        r.layer["sim.events_fired"] / gen,
		"traffic.hops":              hops,
		"traffic.hops_per_pkt":      report.MeanHops,
		"traffic.retries":           float64(report.Retries),
		"traffic.detours":           float64(report.Detours),
		"traffic.greedy_ratio":      1 - float64(report.Detours)/hops,
		"traffic.lost_no_route":     float64(report.LostNoRoute),
		"traffic.lost_hop_fail":     float64(report.LostHopFail),
		"traffic.lost_ttl":          float64(report.LostTTL),
		"traffic.expired":           float64(report.Expired),
		"traffic.max_head_forwards": report.MaxHeadForwards,
	} {
		r.layer[k] = finite(v)
	}
	r.attempted, r.failed = int(report.Generated), int(report.Lost())
	if report.Generated != trafficPackets || report.Generated != report.Delivered+report.Lost() {
		r.faultf("packet accounting: generated %d, delivered %d + lost %d", report.Generated, report.Delivered, report.Lost())
	}
	if report.Lost() > 0 {
		r.faultf("%d of %d packets lost on a settled fault-free field (no route %d, hop failure %d, ttl %d, expired %d)",
			report.Lost(), report.Generated, report.LostNoRoute, report.LostHopFail, report.LostTTL, report.Expired)
	}
	return nil
}
