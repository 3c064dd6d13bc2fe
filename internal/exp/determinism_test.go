package exp

import (
	"runtime"
	"testing"
	"time"

	"gs3/internal/runner"
	"gs3/internal/stats"
)

// TestParallelSerialDeterminism is the core contract of the trial
// runner: for several base seeds, the same experiment executed under
// runner.Parallel(1) and under a multi-worker pool must format to the exact
// same bytes. Tables cover a configuration sweep (T1), a fit-bearing
// sweep (T4), and an ablation that reconfigures the protocol (A1).
func TestParallelSerialDeterminism(t *testing.T) {
	par := runner.Parallel(4)
	radii := []float64{250, 350}
	for _, seed := range []uint64{3, 7, 11} {
		serialT1, err := PerNodeState(runner.Parallel(1), 100, radii, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parallelT1, err := PerNodeState(par, 100, radii, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if serialT1.Format() != parallelT1.Format() {
			t.Errorf("seed %d: T1 tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
				seed, serialT1.Format(), parallelT1.Format())
		}

		serialT4, serialFit, err := StaticConvergence(runner.Parallel(1), 100, radii, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parallelT4, parallelFit, err := StaticConvergence(par, 100, radii, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if serialT4.Format() != parallelT4.Format() {
			t.Errorf("seed %d: T4 tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
				seed, serialT4.Format(), parallelT4.Format())
		}
		if (serialFit != stats.Fit{}) && serialFit != parallelFit {
			t.Errorf("seed %d: fits differ: %+v vs %+v", seed, serialFit, parallelFit)
		}

		serialA1, err := RtSweep(runner.Parallel(1), 100, 250, []float64{0.2, 0.3}, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parallelA1, err := RtSweep(par, 100, 250, []float64{0.2, 0.3}, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if serialA1.Format() != parallelA1.Format() {
			t.Errorf("seed %d: A1 tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
				seed, serialA1.Format(), parallelA1.Format())
		}
	}
}

// TestMaintenanceDeterminism pins the sweep-and-heal path (T3): unlike
// the configuration-only sweeps above, it drives maintenance rounds
// that exercise the spatial-query scratch buffers (cell membership,
// candidate election, head neighbor rebuilds) with failures injected
// mid-run. Serial and parallel pools must still format identically —
// the scratch buffers are per-Medium, so concurrent trials share no
// query state.
func TestMaintenanceDeterminism(t *testing.T) {
	par := runner.Parallel(4)
	diameters := []float64{120, 170}
	for _, seed := range []uint64{5, 9} {
		serial, _, err := PerturbationConvergence(runner.Parallel(1), 100, 350, diameters, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parallel, _, err := PerturbationConvergence(par, 100, 350, diameters, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if serial.Format() != parallel.Format() {
			t.Errorf("seed %d: T3 tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
				seed, serial.Format(), parallel.Format())
		}
	}
}

// TestSweepErrorPropagation checks that a failing trial inside an
// experiment surfaces as an ordinary error (wrapped with its trial
// index) rather than a partial table, for serial and parallel pools
// alike. An absurd region radius makes netsim.Build fail.
func TestSweepErrorPropagation(t *testing.T) {
	for _, p := range []runner.Pool{runner.Parallel(1), runner.Parallel(4)} {
		tb, err := PerNodeState(p, 100, []float64{250, -1}, 7)
		if err == nil {
			t.Fatalf("workers=%d: bad sweep succeeded: %v", p.Workers, tb)
		}
		if len(tb.Rows) != 0 {
			t.Errorf("workers=%d: partial table returned alongside error", p.Workers)
		}
	}
}

// TestParallelSpeedup runs a scaling sweep serially and fanned across
// every CPU, checks both print the same table, and logs the wall-clock
// ratio. It asserts no ratio: wall clock on a shared host is noise to a
// pass/fail test, and timing claims go through paired perfbench runs.
func TestParallelSpeedup(t *testing.T) {
	radii := []float64{300, 400, 500, 600}
	seed := uint64(7)

	serialStart := time.Now()
	serialT, _, err := StaticConvergence(runner.Parallel(1), 100, radii, seed)
	if err != nil {
		t.Fatal(err)
	}
	serialWall := time.Since(serialStart)

	parallelStart := time.Now()
	parallelT, _, err := StaticConvergence(runner.Parallel(0), 100, radii, seed)
	if err != nil {
		t.Fatal(err)
	}
	parallelWall := time.Since(parallelStart)

	if serialT.Format() != parallelT.Format() {
		t.Fatalf("speedup run broke determinism:\n--- serial ---\n%s--- parallel ---\n%s",
			serialT.Format(), parallelT.Format())
	}
	speedup := float64(serialWall) / float64(parallelWall)
	t.Logf("scaling sweep: serial %v, parallel %v, speedup %.2fx on %d CPUs",
		serialWall.Round(time.Millisecond), parallelWall.Round(time.Millisecond),
		speedup, runtime.NumCPU())
}
