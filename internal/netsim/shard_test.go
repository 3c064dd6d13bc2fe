package netsim

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/field"
	"gs3/internal/geom"
)

// shardScenarios mirrors the golden corpus's deployment shapes: dense
// grids at two scales, a gapped field (Rt-gap boundary cells), a
// Poisson deployment, and an obstacle field (occluded radio — legal
// since occlusion only shrinks interference neighborhoods, so the
// conflict-distance bound still holds; see shardable()). All are
// fault-free — the shardable cases.
func shardScenarios() map[string]Options {
	gapped := DefaultOptions(100, 400)
	gapped.Gaps = []field.Gap{
		{Center: geom.Point{X: 150, Y: 80}, Radius: 120},
		{Center: geom.Point{X: -180, Y: -120}, Radius: 90},
	}
	poisson := DefaultOptions(100, 350)
	poisson.GridSpacing = 0
	poisson.Lambda = 0.012
	poisson.Seed = 11
	obstacle := DefaultOptions(100, 380)
	obstacle.Obstacles = []field.Obstacle{
		// An L-shaped wall off-center: non-convex occlusion with nodes
		// on every side of it.
		{{X: 40, Y: -160}, {X: 110, Y: -160}, {X: 110, Y: 60}, {X: -120, Y: 60},
			{X: -120, Y: 130}, {X: 40, Y: 130}},
	}
	return map[string]Options{
		"grid_small": DefaultOptions(100, 300),
		"grid_dense": DefaultOptions(60, 420),
		"gapped":     gapped,
		"poisson":    poisson,
		"obstacle":   obstacle,
	}
}

// configureState captures everything the sharded executor promises to
// reproduce byte-for-byte: the encoded snapshot, the virtual time, the
// medium's traffic counters, the protocol metrics, and the invariant
// checker's verdict on the result.
type configureState struct {
	snapshot []byte
	elapsed  float64
	stats    string
	metrics  string
	checked  string
}

func captureConfigure(t *testing.T, opt Options, workers int) configureState {
	t.Helper()
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed float64
	if workers == 0 {
		elapsed, err = s.Configure()
	} else {
		elapsed, err = s.ConfigureSharded(workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Net.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return configureState{
		snapshot: raw,
		elapsed:  elapsed,
		stats:    fmt.Sprintf("%+v", s.Net.Medium().Stats()),
		metrics:  fmt.Sprintf("%+v", s.Net.Metrics()),
		checked:  fmt.Sprintf("%v", check.Invariant(snap, check.Static).Violations),
	}
}

func diffStates(t *testing.T, name string, serial, sharded configureState) {
	t.Helper()
	if string(serial.snapshot) != string(sharded.snapshot) {
		t.Errorf("%s: snapshot bytes differ (serial %d bytes, sharded %d bytes)",
			name, len(serial.snapshot), len(sharded.snapshot))
	}
	if serial.elapsed != sharded.elapsed {
		t.Errorf("%s: elapsed %v != %v", name, sharded.elapsed, serial.elapsed)
	}
	if serial.stats != sharded.stats {
		t.Errorf("%s: stats\nserial  %s\nsharded %s", name, serial.stats, sharded.stats)
	}
	if serial.metrics != sharded.metrics {
		t.Errorf("%s: metrics\nserial  %s\nsharded %s", name, serial.metrics, sharded.metrics)
	}
	if serial.checked != sharded.checked {
		t.Errorf("%s: invariant output\nserial  %s\nsharded %s", name, serial.checked, sharded.checked)
	}
}

// TestConfigureShardedMatchesSerial is the sharded-configure
// determinism contract: for every scenario and every worker count, the
// wave-parallel executor produces byte-identical snapshots, identical
// stats/metrics/virtual time, and the identical invariant verdict to
// the serial diffusing computation.
func TestConfigureShardedMatchesSerial(t *testing.T) {
	for name, opt := range shardScenarios() {
		serial := captureConfigure(t, opt, 0)
		for _, workers := range []int{1, 2, 8} {
			sharded := captureConfigure(t, opt, workers)
			diffStates(t, fmt.Sprintf("%s/workers=%d", name, workers), serial, sharded)
		}
	}
}

// TestConfigureShardedEpochParity pins the subtler half of the
// contract: the sharded merge replays topology touches in serial event
// order, so the medium's epoch counter — which downstream quiescent
// sweeps key their caches on — ends at exactly the serial value.
func TestConfigureShardedEpochParity(t *testing.T) {
	opt := DefaultOptions(100, 300)
	ser, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ser.Configure(); err != nil {
		t.Fatal(err)
	}
	shr, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shr.ConfigureSharded(8); err != nil {
		t.Fatal(err)
	}
	if a, b := ser.Net.Medium().Epoch(), shr.Net.Medium().Epoch(); a != b {
		t.Errorf("epoch counter: serial %d, sharded %d", a, b)
	}
}

// TestConfigureShardedFaultyFallsBack verifies the gate: with an
// active fault plan the executor must take the serial path (the wave
// model cannot reproduce per-delivery randomness), so the result still
// matches Configure exactly — including the consumed RNG stream.
func TestConfigureShardedFaultyFallsBack(t *testing.T) {
	opt := DefaultOptions(100, 300)
	opt.Faults = fault.Plan{Loss: 0.15, Dup: 0.05, Jitter: 0.2}
	serial := captureConfigure(t, opt, 0)
	sharded := captureConfigure(t, opt, 8)
	diffStates(t, "faulty-fallback", serial, sharded)
}

// TestConfigureShardedThenMaintain drives maintenance sweeps after a
// sharded configure and checks the static fixpoint is reached — the
// sharded result is a drop-in starting state for everything downstream.
func TestConfigureShardedThenMaintain(t *testing.T) {
	opt := DefaultOptions(100, 300)
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConfigureSharded(4); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	if _, err := s.RunToFixpoint(check.Static, 30); err != nil {
		t.Fatalf("no fixpoint after sharded configure: %v", err)
	}
}

// Maintenance sweeps always run serially; the worker count only shards
// the configure step before them. The tests below pin that a run
// configured on shardSweepWorkers workers — more than there are cores,
// so correctness cannot lean on the schedule — stays event-for-event
// identical to a fully serial run through a perturbed maintenance
// phase: the sharded handoff (epochs, heads, timers) must leave the
// quiescence cache and the sweep batches in the serial state.
const shardSweepWorkers = 8

// runShardSweepEquivalence drives a serially configured and a sharded-
// configured build of opt in lock-step through the script.
func runShardSweepEquivalence(t *testing.T, opt Options, variant core.Variant, script []propStep, sweeps int) {
	t.Helper()
	build := func(workers int) *Sim {
		s, err := Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 0 {
			_, err = s.Configure()
		} else {
			_, err = s.ConfigureSharded(workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.Net.StartMaintenance(variant)
		return s
	}
	runLockstep(t, [2]string{"serial", "sharded"}, build(0), build(shardSweepWorkers), script, sweeps)
}

// TestShardedSweepMatchesSerial is the main property: across randomized
// topologies and perturbation schedules — kills, joins, moves,
// corruptions and blackouts — maintenance after a sharded configure is
// identical to maintenance after a serial one.
func TestShardedSweepMatchesSerial(t *testing.T) {
	const sweeps = 30
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opt := DefaultOptions(100, 320)
			opt.Seed = seed
			opt.GridJitter = 0.1 + 0.05*float64(seed%3)
			script := withBlackouts(randomScript(opt, seed*13+5, sweeps), seed*13+5, sweeps)
			runShardSweepEquivalence(t, opt, core.VariantD, script, sweeps)
		})
	}
}

// TestShardedSweepMatchesSerialMobile exercises Variant M after a
// sharded configure: the big node relocates mid-run, so the batch
// holding it carries a full (never cacheable) sweep every round.
func TestShardedSweepMatchesSerialMobile(t *testing.T) {
	const sweeps = 30
	opt := DefaultOptions(100, 320)
	opt.Seed = 3
	script := withBlackouts(randomScript(opt, 99, sweeps), 99, sweeps)
	script = append(script,
		propStep{5, "big-slide", func(s *Sim) {
			p := s.Net.Position(s.Net.BigID())
			s.Net.Move(s.Net.BigID(), p.Add(geom.Vec{X: opt.Config.Rt * 0.8}))
		}},
		propStep{14, "big-move", func(s *Sim) {
			s.Net.Move(s.Net.BigID(), geom.Point{X: -140, Y: 100})
		}},
	)
	runShardSweepEquivalence(t, opt, core.VariantM, script, sweeps)
}

// TestShardedSweepFaultyFallback proves the gate end to end: with an
// active fault plan the configure executor must refuse to shard, so a
// worker-configured build consumes the same RNG stream and stays equal
// to serial through a lossy, blackout-prone maintenance phase.
func TestShardedSweepFaultyFallback(t *testing.T) {
	const sweeps = 20
	opt := DefaultOptions(100, 320)
	opt.Seed = 11
	opt.Faults = fault.Plan{Loss: 0.05, BlackoutRate: 0.01, BlackoutSweeps: 2}
	script := randomScript(opt, 77, sweeps)
	runShardSweepEquivalence(t, opt, core.VariantD, script, sweeps)
}

// TestConfigureSmoke50k is the large-scale race-condition smoke test
// behind `make configure-smoke`: a ~50k-node field configured with the
// sharded executor under the race detector. Gated behind an env var so
// the regular test run stays fast.
func TestConfigureSmoke50k(t *testing.T) {
	if os.Getenv("GS3_CONFIGURE_SMOKE") == "" {
		t.Skip("set GS3_CONFIGURE_SMOKE=1 to run the 50k-node sharded configure smoke")
	}
	opt := DefaultOptions(100, 2800)
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Net.Medium().Count()
	if n < 50000 {
		t.Fatalf("deployment too small for the smoke: %d nodes", n)
	}
	if _, err := s.ConfigureSharded(8); err != nil {
		t.Fatal(err)
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
	t.Logf("%d nodes, %d heads, %d bootup", n, heads, bootup)
	if heads == 0 || bootup > n/10 {
		t.Errorf("structure did not form: %d heads, %d bootup of %d", heads, bootup, n)
	}
}
