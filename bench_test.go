// Benchmarks regenerating every figure and table of the paper (one per
// experiment ID in DESIGN.md), plus micro-benchmarks of the protocol's
// hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark prints its reproduced table once (first
// iteration) so `go test -bench` output doubles as the paper-vs-
// measured record; EXPERIMENTS.md archives a full run.
package gs3

import (
	"slices"
	"sync"
	"testing"

	"gs3/internal/analysis"
	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/exp"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/runner"
	"gs3/internal/traffic"
)

// printOnce prints a reproduced table on the first benchmark iteration
// only, keyed by experiment ID.
var printedTables sync.Map

func printOnce(b *testing.B, id, text string) {
	b.Helper()
	if _, loaded := printedTables.LoadOrStore(id, true); !loaded {
		b.Log("\n" + text)
	}
}

// BenchmarkConfigureStructure is experiment F1: configure the cellular
// hexagonal structure of Figures 1/4 and machine-check Corollaries 1–2
// via the invariant.
func BenchmarkConfigureStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := netsim.Build(netsim.DefaultOptions(100, 400))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Configure(); err != nil {
			b.Fatal(err)
		}
		if r := check.Invariant(s.Net.Snapshot(), check.Static); !r.OK() {
			b.Fatalf("invariant violated: %v", r.Violations[0])
		}
	}
}

// BenchmarkConfigureStructureLarge is F1 at 10,000+ nodes: the serial
// configure plus invariant check on a deployment an order of magnitude
// past the paper's scale. This is the workload the struct-of-arrays
// node store is sized for.
func BenchmarkConfigureStructureLarge(b *testing.B) {
	opt := netsim.DefaultOptions(100, 1250)
	for i := 0; i < b.N; i++ {
		s, err := netsim.Build(opt)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(s.Dep.Positions); n < 10000 {
			b.Fatalf("deployment too small for the large benchmark: %d nodes", n)
		}
		if _, err := s.Configure(); err != nil {
			b.Fatal(err)
		}
		if r := check.Invariant(s.Net.Snapshot(), check.Static); !r.OK() {
			b.Fatalf("invariant violated: %v", r.Violations[0])
		}
	}
}

// TestConfigureAllocBudget pins the allocation count of the F1 path
// (build + configure + snapshot + invariant) so the dense-store and
// dense-checker work cannot silently regress. The measured figure at
// the time of pinning was ~290 allocations per run; the ceiling leaves
// headroom for incidental growth while catching any return of the
// per-node allocation patterns (thousands per run) this budget removed.
func TestConfigureAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run alloc measurement")
	}
	opt := netsim.DefaultOptions(100, 400)
	allocs := testing.AllocsPerRun(5, func() {
		s, err := netsim.Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Configure(); err != nil {
			t.Fatal(err)
		}
		if r := check.Invariant(s.Net.Snapshot(), check.Static); !r.OK() {
			t.Fatalf("invariant violated: %v", r.Violations[0])
		}
	})
	if allocs > 600 {
		t.Errorf("configure+check path allocates %.0f times per run, budget is 600", allocs)
	}
}

// The work pins below are the repository's performance gate. Each
// perfbench workload (configure, maintain's settled rounds and heals,
// traffic) has a small-field twin here whose work is pinned exactly:
// engine events fired, range queries, messages, sweep bodies run
// versus replayed from the quiescence cache, and allocations. The
// counts are deterministic, so any change to one is a change in what
// the simulator does and must be explained, while wall clock on a
// shared host moves by tens of percent with no code change at all.

// TestConfigureWorkCounters pins the exact work of a serial configure
// on the F1 field (1,151 nodes, 19 HEAD_ORGs): one engine event per
// HEAD_ORG, two broadcasts per HEAD_ORG (org and HeadSet), and one
// range query per broadcast, per head gather answering that HEAD_ORG's
// ASSOCIATE_ORG_RESP fan-out, and per IL owner/conflict probe of
// HEAD_SELECT. The HeadSet broadcast goes to the org broadcast's
// audience, so its range query is credited, not run. A return to one
// head query per receiver (6,344 range queries on this field) fails
// here exactly.
func TestConfigureWorkCounters(t *testing.T) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 400))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	st, m := s.Net.Medium().Stats(), s.Net.Metrics()
	got := [5]uint64{st.RangeQueries, st.Broadcasts, m.ReplyMessages, m.HeadOrgs, s.Net.Engine().Fired()}
	want := [5]uint64{165, 38, 1578, 19, 19}
	if got != want {
		t.Errorf("configure work (range queries, broadcasts, replies, HEAD_ORGs, events) = %v, want %v", got, want)
	}
}

// settledLargeField builds the 5,179-node field of
// BenchmarkSweepSteadyStateLarge and settles it (settledField).
func settledLargeField(t testing.TB) *netsim.Sim {
	t.Helper()
	s := settledField(t, netsim.DefaultOptions(100, 850))
	if n := len(s.Dep.Positions); n != 5179 {
		t.Fatalf("field has %d nodes, want 5,179", n)
	}
	return s
}

// settledField builds the field of opt and settles it the way
// perfbench's maintain workload does: GS³-D to the dynamic fixpoint,
// then two boundary-rescan cycles so both sweep-cache flavors are
// recorded.
func settledField(t testing.TB, opt netsim.Options) *netsim.Sim {
	t.Helper()
	s, err := netsim.Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	if _, err := s.RunToFixpoint(check.Dynamic, 30); err != nil {
		t.Fatal(err)
	}
	s.RunSweeps(2 * s.Opt.Config.BoundaryRescanEvery)
	return s
}

// TestSettledRoundWorkCounters pins a settled heartbeat round, the
// maintain workload's timed operation: 17 engine events (one sweep
// batch per heartbeat phase), one full sweep body (the big node's,
// which is never cached) and a cache replay for each of the other
// 5,178 nodes. Every round of a full rescan-by-sanity-check period is
// checked, so both cache flavors and the SANITY_CHECK rounds are
// covered. A sweep cache that stops hitting, or a scheduler that stops
// batching, fails here by thousands.
func TestSettledRoundWorkCounters(t *testing.T) {
	s := settledLargeField(t)
	eng, cfg := s.Net.Engine(), s.Opt.Config
	for round := range cfg.BoundaryRescanEvery * core.SanityCheckEvery {
		fired := eng.Fired()
		bodies, replays, _ := s.Net.SweepWork()
		s.RunSweeps(1)
		b, r, _ := s.Net.SweepWork()
		got := [3]uint64{eng.Fired() - fired, b - bodies, r - replays}
		if want := [3]uint64{17, 1, 5178}; got != want {
			t.Fatalf("settled round %d work (events, sweep bodies, replays) = %v, want %v", round, got, want)
		}
	}
}

// TestHealWorkCounters pins a heal on the settled large field, the
// maintain workload's strikes: a crater of one search radius kills 358
// nodes, the dynamic fixpoint holds again after 2 heartbeats, and those
// heartbeats run 4,417 full sweep bodies and replay 5,225 sweeps. The
// split is the cost of healing: a cache invalidated more widely than
// the damage, or a heal that needs another heartbeat, moves it. Before
// associates watched the associate view, which heads' link rewrites do
// not move, the same heal ran 7,234 bodies and 2,408 replays.
func TestHealWorkCounters(t *testing.T) {
	s := settledLargeField(t)
	bodies, replays, _ := s.Net.SweepWork()
	killed := s.KillDisk(geom.Point{X: 300}, s.Opt.Config.SearchRadius())
	vt, err := s.RunToFixpoint(check.Dynamic, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, r, _ := s.Net.SweepWork()
	heartbeats := uint64(vt / s.Opt.Config.HeartbeatInterval)
	got := [4]uint64{uint64(killed), heartbeats, b - bodies, r - replays}
	if want := [4]uint64{358, 2, 4417, 5225}; got != want {
		t.Errorf("heal (killed, heartbeats, sweep bodies, replays) = %v, want %v", got, want)
	}
}

// TestWarmUpWorkCounters pins the warm-up of the maintain and traffic
// workloads' set-up on the large field: Configure, then two
// boundary-rescan cycles of heartbeats, each running the full sweep
// bodies and ASSOCIATE_ORG_RESP choices listed. In heartbeat 1 heads
// rewrite the Neighbors lists configure linked in HEAD_SELECT order:
// associates do not read them, so heartbeat 2 replays their sweeps.
// Heartbeats 4 and 5 hold every head's first boundary rescan, which
// re-runs ASSOCIATE_ORG_RESP at each small receiver: a receiver whose
// world has not moved since its last choice is skipped, so the several
// rescans an associate hears cost it one choice. Before associates
// watched the associate view and the choice was skipped, heartbeat 2
// ran 4,522 bodies, heartbeats 4, 5 and 9 ran 2,574, 30,086 and 436
// choices, and Configure ran the same 32,660.
func TestWarmUpWorkCounters(t *testing.T) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 850))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	if _, _, choices := s.Net.SweepWork(); choices != 32660 {
		t.Errorf("Configure ran %d ASSOCIATE_ORG_RESP choices, want 32,660", choices)
	}
	s.Net.StartMaintenance(core.VariantD)
	beats := 2 * s.Opt.Config.BoundaryRescanEvery
	bodies, choices := make([]uint64, beats), make([]uint64, beats)
	for i := range beats {
		b0, _, c0 := s.Net.SweepWork()
		s.RunSweeps(1)
		b, _, c := s.Net.SweepWork()
		bodies[i], choices[i] = b-b0, c-c0
	}
	if want := []uint64{5187, 78, 1, 8, 78, 1, 1, 1, 1, 1}; !slices.Equal(bodies, want) {
		t.Errorf("warm-up sweep bodies per heartbeat = %v, want %v", bodies, want)
	}
	if want := []uint64{0, 0, 0, 2216, 2878, 0, 0, 0, 0, 0}; !slices.Equal(choices, want) {
		t.Errorf("warm-up ASSOCIATE_ORG_RESP choices per heartbeat = %v, want %v", choices, want)
	}
}

// BenchmarkWarmUp times the warm-up TestWarmUpWorkCounters pins:
// Configure on the large field, then two boundary-rescan cycles of
// heartbeats. The field is built off the clock.
func BenchmarkWarmUp(b *testing.B) {
	opt := netsim.DefaultOptions(100, 850)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := netsim.Build(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Configure(); err != nil {
			b.Fatal(err)
		}
		s.Net.StartMaintenance(core.VariantD)
		s.RunSweeps(2 * opt.Config.BoundaryRescanEvery)
	}
}

// TestTrafficWorkCounters pins the traffic workload on the settled
// field of BenchmarkServeTraffic. AllocsPerRun serves 2,000 packets
// (30% point-to-point) twice, a warm-up run that grows the engine's
// buckets and then the measured run; together they fire exactly 20,763
// engine events, and every packet arrives. A hop is an engine event
// whose payload indexes the plane's dense packet slice, so the
// measured run allocates only while its new plane grows its packet,
// latency and counter slices and registers its event kinds: 32 times,
// however many packets it serves. The flat budget of 64 fails on one
// more allocation per hop: 8,294 allocations in this run.
func TestTrafficWorkCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run alloc measurement")
	}
	s, err := netsim.Build(netsim.DefaultOptions(50, 300))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(15)
	const packets = 2000
	eng := s.Net.Engine()
	fired := eng.Fired()
	allocs := testing.AllocsPerRun(1, func() {
		plane, err := s.ServeTraffic(traffic.Config{Packets: packets, Rate: 1000, P2PFraction: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		if rep := plane.Run(); rep.DeliveryRatio != 1 {
			t.Errorf("settled zero-fault run delivered %v, want 1", rep.DeliveryRatio)
		}
	})
	if events := eng.Fired() - fired; events != 20763 {
		t.Errorf("warm-up and measured traffic runs fired %d engine events, want 20,763", events)
	}
	if allocs > 64 {
		t.Errorf("traffic run allocates %.0f times, budget is 64 whatever the packet count", allocs)
	}
}

// BenchmarkNonIdealCellRatio is experiment F7 (paper Figure 7).
func BenchmarkNonIdealCellRatio(b *testing.B) {
	ratios := analysis.DefaultRatios()
	for i := 0; i < b.N; i++ {
		t := exp.Figure7(10, 100, ratios, 20000, 7)
		printOnce(b, "F7", t.Format())
	}
}

// BenchmarkGapRegionDiameter is experiment F8 (paper Figure 8).
func BenchmarkGapRegionDiameter(b *testing.B) {
	ratios := analysis.DefaultRatios()
	for i := 0; i < b.N; i++ {
		t := exp.Figure8(10, 100, ratios, 20000, 7)
		printOnce(b, "F8", t.Format())
	}
}

// BenchmarkPerNodeState is experiment T1 (Appendix 1 row 1).
func BenchmarkPerNodeState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.PerNodeState(runner.Parallel(1), 100, []float64{300, 500}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "T1", t.Format())
	}
}

// BenchmarkStructureLifetime is experiment T2 (Appendix 1 row 2).
func BenchmarkStructureLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.StructureLifetime(runner.Parallel(1), 100, 260, []float64{30, 18}, 40, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "T2", t.Format())
	}
}

// BenchmarkPerturbationConvergence is experiment T3 (Appendix 1 row 3).
func BenchmarkPerturbationConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _, err := exp.PerturbationConvergence(runner.Parallel(1), 100, 700, []float64{170, 400, 600}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "T3", t.Format())
	}
}

// BenchmarkStaticConvergence is experiment T4 (Appendix 1 row 4,
// Theorem 4).
func BenchmarkStaticConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, fit, err := exp.StaticConvergence(runner.Parallel(1), 100, []float64{300, 450, 600}, 7)
		if err != nil {
			b.Fatal(err)
		}
		if fit.R2 < 0.9 {
			b.Fatalf("configure time not linear: R2=%v", fit.R2)
		}
		printOnce(b, "T4", t.Format())
	}
}

// BenchmarkArbitraryStateConvergence is experiment T5 (Appendix 1 row
// 5, Theorem 7).
func BenchmarkArbitraryStateConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.ArbitraryStateConvergence(runner.Parallel(1), 100, 500, []float64{150, 300}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "T5", t.Format())
	}
}

// BenchmarkInvariantCheck is experiment I1/I2: the cost of machine-
// checking SI/DI on a configured snapshot.
func BenchmarkInvariantCheck(b *testing.B) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 500))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	snap := s.Net.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := check.Invariant(snap, check.Static); !r.OK() {
			b.Fatal("invariant violated")
		}
	}
}

// BenchmarkFixpointCheck is the cost of machine-checking DF, the check
// netsim.RunToFixpoint makes once per heartbeat, on the settled 5,179-
// node field of the work pins and on that field one heartbeat into
// healing a crater of one search radius.
func BenchmarkFixpointCheck(b *testing.B) {
	s := settledLargeField(b)
	settled := s.Net.Snapshot()
	s.KillDisk(geom.Point{X: 300}, s.Opt.Config.SearchRadius())
	s.RunSweeps(1)
	healing := s.Net.Snapshot()
	for _, c := range []struct {
		name string
		snap core.Snapshot
		ok   bool
	}{{"settled", settled, true}, {"healing", healing, false}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := check.Fixpoint(c.snap, check.Dynamic); r.OK() != c.ok {
					b.Fatalf("fixpoint holds: %v, want %v", r.OK(), c.ok)
				}
			}
		})
	}
}

// TestFixpointAllocBudget pins the allocations of one Fixpoint(Dynamic)
// check of the settled 5,179-node field at 64; it makes 49. The index
// and the F₄ search are dense arrays and grids carved in a few
// allocations each, so the count grows only with the logarithm of the
// field (slices appended to while a grid fills); one allocation per
// node or per cell fails here by thousands.
func TestFixpointAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("settles a 5,179-node field")
	}
	snap := settledLargeField(t).Net.Snapshot()
	allocs := testing.AllocsPerRun(5, func() {
		if r := check.Fixpoint(snap, check.Dynamic); !r.OK() {
			t.Fatalf("dynamic fixpoint violated: %v", r.Violations[0])
		}
	})
	if allocs > 64 {
		t.Errorf("Fixpoint allocates %.0f times per check, budget is 64", allocs)
	}
}

// BenchmarkBigNodeMoveLocality is experiment M1 (Theorem 11).
func BenchmarkBigNodeMoveLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.BigMoveLocality(runner.Parallel(1), 100, 500, []float64{1.5, 2.5}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "M1", t.Format())
	}
}

// BenchmarkStructureSlide is experiment S1 (§4.3.5.1 item 3).
func BenchmarkStructureSlide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.SlideConsistency(100, 300, 60, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "S1", t.Format())
	}
}

// BenchmarkVsLEACH is experiment B1 (Related Work vs LEACH).
func BenchmarkVsLEACH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.VsLEACH(runner.Parallel(1), 100, []float64{300, 450}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "B1", t.Format())
	}
}

// BenchmarkVsHopCluster is experiment B2 (Related Work vs hop-bounded
// clustering).
func BenchmarkVsHopCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.VsHopCluster(100, 400, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "B2", t.Format())
	}
}

// BenchmarkFrequencyReuse is experiment C1: the introduction's
// frequency-reuse claim — reuse-3 channels on the hex lattice vs greedy
// coloring of unstructured clusterings.
func BenchmarkFrequencyReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.FrequencyReuse(100, 400, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "C1", t.Format())
	}
}

// BenchmarkRtSweepAblation is ablation A1 (Rt tolerance vs tightness).
func BenchmarkRtSweepAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.RtSweep(runner.Parallel(1), 100, 350, []float64{0.15, 0.4}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "A1", t.Format())
	}
}

// BenchmarkRescanPeriodAblation is ablation A2 (rescan period vs
// healing latency).
func BenchmarkRescanPeriodAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.RescanPeriodAblation(runner.Parallel(1), 100, 500, []int{2, 8}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "A2", t.Format())
	}
}

// BenchmarkHeartbeatAblation is ablation A3 (heartbeat interval vs
// masking latency).
func BenchmarkHeartbeatAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.HeartbeatAblation(runner.Parallel(1), 100, 350, []float64{0.5, 2}, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "A3", t.Format())
	}
}

// ---- Hot-path micro-benchmarks ----

// BenchmarkHeadOrgAction measures one HEAD_ORG module execution on a
// configured network (re-running it at an existing head is a no-op
// selection pass over its neighborhood).
func BenchmarkHeadOrgAction(b *testing.B) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 400))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	var head core.NodeView
	for _, h := range s.Net.Snapshot().Heads() {
		if !h.IsBig {
			head = h
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Net.RescanAround(head.ID)
	}
}

// BenchmarkMaintenanceSweepRound measures one full heartbeat round of
// GS³-D maintenance across a 400-radius network.
func BenchmarkMaintenanceSweepRound(b *testing.B) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 400))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunSweeps(1)
	}
}

// BenchmarkSweepSteadyState measures heartbeat rounds once the
// structure has settled: after warm-up sweeps every cell is stable, so
// the per-round work is pure re-verification — the regime where the
// reusable query buffers matter most. Run with -benchmem: the allocs/op
// here is the steady-state cost of the whole maintenance stack.
func BenchmarkSweepSteadyState(b *testing.B) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 400))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(5) // settle: first rounds still strengthen cells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunSweeps(1)
	}
}

// BenchmarkSweepSteadyStateLarge is the settled-round benchmark at
// 5,000+ nodes. At this scale a settled round is almost entirely
// quiescent replays, so ns/op tracks the cache fast path and the
// per-sweep mandatory work (counters, energy, batch dispatch) rather
// than neighborhood scans. Its field's Node array is 0.9 MB and stays
// in cache, so it cannot show what a sweep's memory reads cost (see
// BenchmarkSweepSteadyState50k).
func BenchmarkSweepSteadyStateLarge(b *testing.B) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 850))
	if err != nil {
		b.Fatal(err)
	}
	if n := len(s.Dep.Positions); n < 5000 {
		b.Fatalf("deployment too small for the large benchmark: %d nodes", n)
	}
	if _, err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunSweeps(1)
	}
}

// BenchmarkSweepSteadyState50k times settled rounds on a field the size
// of perfbench's maintain field (~50k nodes, its seed 1 layout),
// settled the same way, with set-up off the clock. Here the per-node
// state outgrows the cache: the 8.8 MB Node array a phase batch would
// walk at a 2,992-byte stride (every 17th ID) does not fit, so the round
// time shows what each settled sweep reads — the medium's 1-byte flags
// and one 32-byte sweep record (store.go).
func BenchmarkSweepSteadyState50k(b *testing.B) {
	spacing := netsim.DefaultOptions(100, 1).GridSpacing
	opt := netsim.DefaultOptions(100, exp.RegionRadiusFor(50_000, spacing))
	opt.Seed = 1
	s := settledField(b, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunSweeps(1)
	}
}

// TestSweepAllocBudget pins the allocation count of one settled
// maintenance round on the large field, so the replay path cannot
// silently start allocating per node: sweep batches are pooled with
// their engine callbacks, replays only bump interned-delta counts, the
// per-batch credit reuses its index list, and the event engine's
// buckets reach their capacity during warm-up.
func TestSweepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run alloc measurement")
	}
	s, err := netsim.Build(netsim.DefaultOptions(100, 850))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(6) // settle, and warm every reusable buffer
	allocs := testing.AllocsPerRun(5, func() {
		s.RunSweeps(1)
	})
	if allocs > 0 {
		t.Errorf("settled round allocates %.0f times, budget is 0", allocs)
	}
}

// BenchmarkSweepAfterFault measures the expensive end of the cache
// spectrum: the three heartbeat rounds right after a cell-sized kill,
// when every cache in the blast region is invalid and the sweeps do
// real detection and healing. Each iteration rebuilds and settles the
// network off the clock so the timed region is stationary.
func BenchmarkSweepAfterFault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := netsim.Build(netsim.DefaultOptions(100, 300))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Configure(); err != nil {
			b.Fatal(err)
		}
		s.Net.StartMaintenance(core.VariantD)
		s.RunSweeps(5)
		cfg := s.Opt.Config
		b.StartTimer()
		s.KillDisk(geom.Point{X: 120}, cfg.Rt)
		s.RunSweeps(3)
	}
}

// BenchmarkSnapshot measures the cost of capturing a full network
// snapshot (the observability path used by all checks).
func BenchmarkSnapshot(b *testing.B) {
	s, err := netsim.Build(netsim.DefaultOptions(100, 500))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := s.Net.Snapshot(); len(snap.Nodes) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkServeTraffic measures the data plane's packet throughput on
// a settled structure: 10,000 packets (30% point-to-point geographic,
// rest convergecast) routed per iteration, every hop a scheduled radio
// delivery on a zero-fault medium. Divide ns/op by 10,000 for the
// per-packet cost of the whole stack — generator, routing, event
// engine, radio — and watch allocs/op: the packet pool keeps the
// steady state off the heap.
func BenchmarkServeTraffic(b *testing.B) {
	s, err := netsim.Build(netsim.DefaultOptions(50, 300))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(15) // settle: geographic routing needs full neighbor tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane, err := s.ServeTraffic(traffic.Config{Packets: 10000, Rate: 1000, P2PFraction: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		if rep := plane.Run(); rep.DeliveryRatio != 1 {
			b.Fatalf("settled zero-fault run delivered %v, want 1", rep.DeliveryRatio)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// ---- Parallel runner smoke benchmarks ----
//
// The pair below measures the same T4 scaling sweep executed serially
// and fanned across GOMAXPROCS workers by internal/runner — the
// parallel-vs-serial smoke check. Guarded by -short so quick benchmark
// runs skip the heavy sweep; compare the pair's ns/op to see the
// trial-level speedup on a multi-core machine.

var smokeSweepRadii = []float64{300, 450, 600}

// BenchmarkScalingSweepSerial runs the T4 sweep one trial at a time.
func BenchmarkScalingSweepSerial(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy scaling sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.StaticConvergence(runner.Parallel(1), 100, smokeSweepRadii, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingSweepParallel runs the identical sweep on a
// GOMAXPROCS worker pool; the output tables are byte-identical to the
// serial run (asserted by TestParallelSerialDeterminism), only the
// wall-clock differs.
func BenchmarkScalingSweepParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy scaling sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.StaticConvergence(runner.Parallel(0), 100, smokeSweepRadii, 7); err != nil {
			b.Fatal(err)
		}
	}
}
