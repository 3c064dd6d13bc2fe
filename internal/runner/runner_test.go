package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 0} {
		out, err := Map(Pool{Workers: workers}, 20, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 20 {
			t.Fatalf("workers=%d: len = %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSerial(t *testing.T) {
	fn := func(i int) (string, error) {
		return fmt.Sprintf("trial-%03d", i), nil
	}
	serial, err := Map(Parallel(1), 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(Pool{Workers: 8}, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d: serial %q vs parallel %q", i, serial[i], parallel[i])
		}
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	out, err := Map(Pool{}, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
	if _, err := Map(Pool{}, -1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative trial count accepted")
	}
}

// TestMapErrorPropagation is the determinism contract for failures: the
// error reported is the lowest-indexed failing trial's, whatever the
// worker count, and it unwraps to the underlying cause.
func TestMapErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	fn := func(i int) (int, error) {
		if i == 7 || i == 13 {
			return 0, fmt.Errorf("trial body %d: %w", i, sentinel)
		}
		return i, nil
	}
	for _, workers := range []int{1, 3, 8} {
		out, err := Map(Pool{Workers: workers}, 20, fn)
		if out != nil {
			t.Errorf("workers=%d: results returned alongside error", workers)
		}
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %v is not a TrialError", workers, err)
		}
		if te.Trial != 7 {
			t.Errorf("workers=%d: failed trial = %d, want 7 (lowest index)", workers, te.Trial)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: error does not unwrap to the cause", workers)
		}
	}
}

// TestMapStopsClaimingAfterError checks the early-exit behavior: once a
// trial fails, unstarted trials are skipped (but the batch still
// reports the lowest-indexed failure).
func TestMapStopsClaimingAfterError(t *testing.T) {
	var started atomic.Int64
	_, err := Map(Pool{Workers: 2}, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("immediate failure")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := started.Load(); n > 100 {
		t.Errorf("%d trials started after an immediate failure", n)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
					return
				}
				if workers > 1 && !strings.Contains(fmt.Sprint(r), "trial 3") {
					t.Errorf("workers=%d: panic lost trial attribution: %v", workers, r)
				}
			}()
			Map(Pool{Workers: workers}, 8, func(i int) (int, error) {
				if i == 3 {
					panic("kaboom")
				}
				return i, nil
			})
		}()
	}
}

func TestMapTimedStats(t *testing.T) {
	out, stats, err := MapTimed(Pool{Workers: 2}, 6, func(i int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 || len(stats.Trials) != 6 {
		t.Fatalf("out=%d timings=%d", len(out), len(stats.Trials))
	}
	if stats.Workers != 2 {
		t.Errorf("workers = %d", stats.Workers)
	}
	if stats.Wall <= 0 {
		t.Error("no wall time recorded")
	}
	for i, tt := range stats.Trials {
		if tt.Trial != i {
			t.Errorf("timing %d labeled trial %d", i, tt.Trial)
		}
		if tt.Elapsed <= 0 {
			t.Errorf("trial %d has no duration", i)
		}
	}
	if stats.Serial() < stats.Wall/4 {
		t.Errorf("serial sum %v implausibly below wall %v", stats.Serial(), stats.Wall)
	}
	if stats.Speedup() <= 0 {
		t.Errorf("speedup = %v", stats.Speedup())
	}
}

func TestPoolSizeClamps(t *testing.T) {
	if got := (Pool{Workers: 8}).size(3); got != 3 {
		t.Errorf("size clamped to %d, want 3 (batch size)", got)
	}
	if got := (Pool{Workers: -5}).size(100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("size = %d, want GOMAXPROCS", got)
	}
	if got := Parallel(1).size(100); got != 1 {
		t.Errorf("Parallel(1) size = %d", got)
	}
}

func TestTrialSeed(t *testing.T) {
	if TrialSeed(42, 0) != 42 {
		t.Error("trial 0 must keep the base seed")
	}
	// Pure: same inputs, same output.
	if TrialSeed(42, 5) != TrialSeed(42, 5) {
		t.Error("TrialSeed is not deterministic")
	}
	// Decorrelated: distinct trials and bases give distinct seeds.
	seen := map[uint64]string{}
	for _, base := range []uint64{1, 7, 42, 1 << 40} {
		for trial := 0; trial < 64; trial++ {
			s := TrialSeed(base, trial)
			key := fmt.Sprintf("base=%d trial=%d", base, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s -> %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
