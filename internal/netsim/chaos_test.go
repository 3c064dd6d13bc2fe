package netsim

import (
	"testing"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/runner"
)

// chaosTrial builds, configures, and chaos-runs one faulty scenario.
func chaosTrial(t *testing.T, seed uint64, plan fault.Plan, budget int) ChaosReport {
	t.Helper()
	opt := DefaultOptions(100, 250)
	opt.Seed = seed
	opt.Faults = plan
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	return s.RunChaos(check.Dynamic, 3, budget)
}

// Identical (seed, plan) pairs must produce the identical chaos report:
// the fault schedule, the healing, and the watchdog verdict all replay.
func TestChaosDeterminism(t *testing.T) {
	plan := fault.Plan{Loss: 0.2, Dup: 0.05, Jitter: 0.3, BlackoutRate: 0.01, BlackoutSweeps: 3}
	a := chaosTrial(t, 11, plan, 80)
	b := chaosTrial(t, 11, plan, 80)
	if a != b {
		t.Fatalf("chaos replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// Chaos trials fanned across a pool must report exactly what a serial
// run reports: trials share nothing, so the schedule cannot matter.
func TestChaosParallelMatchesSerial(t *testing.T) {
	run := func(p runner.Pool) []ChaosReport {
		out, err := runner.Map(p, 4, func(i int) (ChaosReport, error) {
			opt := DefaultOptions(100, 250)
			opt.Seed = runner.TrialSeed(21, i)
			opt.Faults = fault.Plan{Loss: 0.15, BlackoutRate: 0.01, BlackoutSweeps: 2}
			s, err := Build(opt)
			if err != nil {
				return ChaosReport{}, err
			}
			if _, err := s.Configure(); err != nil {
				return ChaosReport{}, err
			}
			s.Net.StartMaintenance(core.VariantD)
			return s.RunChaos(check.Dynamic, 3, 60), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(runner.Parallel(1))
	parallel := run(runner.Parallel(4))
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// The headline robustness claim: at 20% message loss the default grid
// scenario still reaches the GS³-D fixpoint in nearly every seeded
// trial within the sweep budget.
func TestChaosConvergenceUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("32 chaos trials")
	}
	const trials = 32
	converged := 0
	var retries uint64
	out, err := runner.Map(runner.Pool{}, trials, func(i int) (ChaosReport, error) {
		opt := DefaultOptions(100, 250)
		opt.Seed = runner.TrialSeed(1, i)
		opt.Faults = fault.Plan{Loss: 0.2}
		s, err := Build(opt)
		if err != nil {
			return ChaosReport{}, err
		}
		if _, err := s.Configure(); err != nil {
			return ChaosReport{}, err
		}
		s.Net.StartMaintenance(core.VariantD)
		return s.RunChaos(check.Dynamic, 3, 120), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range out {
		if rep.Converged {
			converged++
		}
		retries += rep.Retries
	}
	if frac := float64(converged) / trials; frac < 0.95 {
		t.Errorf("converged in %d/%d trials (%.0f%%), want >= 95%%", converged, trials, 100*frac)
	}
	_ = retries // retry counters are surfaced per-trial via radio.Stats
}

// A run with faults disabled must behave exactly like one built before
// the fault layer existed: same structure, same radio traffic, and no
// fault counters ticking.
func TestZeroFaultPlanIsByteIdentical(t *testing.T) {
	build := func(plan fault.Plan) (core.Snapshot, uint64) {
		opt := DefaultOptions(100, 300)
		opt.Seed = 9
		opt.Faults = plan
		s, err := Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Configure(); err != nil {
			t.Fatal(err)
		}
		s.Net.StartMaintenance(core.VariantD)
		s.RunSweeps(10)
		return s.Net.Snapshot(), s.Net.Medium().Stats().Deliveries
	}
	snapA, delivA := build(fault.Plan{})
	snapB, delivB := build(fault.Plan{BlackoutSweeps: 3}) // inactive: no rate
	if delivA != delivB {
		t.Fatalf("deliveries differ: %d vs %d", delivA, delivB)
	}
	a, err := snapA.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapB.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("zero-fault snapshots differ")
	}
}

// RunChaos must demand the streak: a fixpoint that holds once but then
// breaks is not convergence.
func TestChaosStreakSemantics(t *testing.T) {
	opt := DefaultOptions(100, 250)
	opt.Seed = 4
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	// Reliable network, already configured: the fixpoint holds
	// immediately and stays; HealTime must be 0.
	rep := s.RunChaos(check.Dynamic, 3, 20)
	if !rep.Converged || rep.HealTime != 0 {
		t.Fatalf("reliable configured run: %+v, want immediate convergence", rep)
	}
	// Budget 0 with streak 3 cannot converge (only one evaluation).
	rep = s.RunChaos(check.Dynamic, 3, 0)
	if rep.Converged {
		t.Fatalf("budget 0 with streak 3 converged: %+v", rep)
	}
}
