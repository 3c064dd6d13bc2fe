// Package runner executes batches of independent simulation trials,
// optionally fanning them across a pool of goroutines, while keeping
// every observable output identical to a serial run.
//
// # Concurrency model
//
// The simulation engine (internal/sim) and everything layered on it
// (internal/core, internal/netsim) are strictly single-threaded: one
// trial owns one engine, one network, and one RNG, and nothing else may
// touch them while the trial runs. The runner exploits the resulting
// independence — trials share no mutable state, so they may execute
// concurrently without locks — and re-serializes at the edges:
//
//   - Each trial receives only its index. Anything trial-specific
//     (parameters, seeds) must be derived from that index, typically
//     with TrialSeed, so no draw order is shared between trials.
//   - Results land in a slice indexed by trial, so collection order is
//     the trial order regardless of completion order.
//   - On failure the error reported is the one from the lowest-indexed
//     failing trial — exactly the error a serial run would have
//     returned first.
//
// Consequently Map(Parallel(1), ...) and Map(Parallel(n), ...) produce
// byte-identical results (and identical errors) for the same inputs;
// parallelism changes only the wall-clock time.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Pool configures how a batch of trials executes. The zero value runs
// one trial per available CPU (GOMAXPROCS workers).
//
// Pool is an immutable value: it holds no state, may be copied freely,
// and the same Pool may drive any number of Map calls from any number
// of goroutines concurrently.
type Pool struct {
	// Workers is the number of goroutines executing trials.
	// Workers <= 0 selects runtime.GOMAXPROCS(0). Workers == 1 runs
	// the batch inline on the calling goroutine with no concurrency
	// at all — the serial reference execution.
	Workers int
}

// Parallel returns a pool with n workers; n <= 0 means GOMAXPROCS.
func Parallel(n int) Pool { return Pool{Workers: n} }

// size returns the effective worker count for a batch of n trials.
func (p Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TrialTiming records the wall-clock duration of one trial.
type TrialTiming struct {
	Trial   int
	Elapsed time.Duration
}

// Stats reports how a batch executed: the worker count actually used,
// the wall-clock time of the whole batch, and per-trial wall-clock
// durations in trial order. Stats is plain data; the caller owns it.
type Stats struct {
	Workers int
	Wall    time.Duration
	Trials  []TrialTiming
}

// Serial returns the sum of the per-trial durations — the wall-clock
// time a serial execution of the same trials would have needed.
func (s Stats) Serial() time.Duration {
	var total time.Duration
	for _, t := range s.Trials {
		total += t.Elapsed
	}
	return total
}

// Speedup returns the ratio of serial time to batch wall time (1.0 when
// the wall time is zero).
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 1
	}
	return float64(s.Serial()) / float64(s.Wall)
}

// TrialError reports which trial of a batch failed. Map returns the
// TrialError with the lowest Trial among all failures, matching the
// first error a serial run would hit.
type TrialError struct {
	Trial int
	Err   error
}

// Error formats the failure with its trial index.
func (e *TrialError) Error() string { return fmt.Sprintf("trial %d: %v", e.Trial, e.Err) }

// Unwrap exposes the underlying trial failure to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// trialPanic carries a panic value from a worker goroutine back to the
// caller so parallel panics surface on the calling goroutine, like
// serial ones.
type trialPanic struct {
	trial int
	value any
}

// Map runs n independent trials — fn(0) … fn(n-1) — on the pool and
// returns their results in trial order. fn must not share mutable state
// between invocations; each call may execute on a different goroutine,
// but no two calls target the same trial and fn is never called twice
// with the same index.
//
// If any trial returns an error, Map returns a *TrialError wrapping the
// failure of the lowest-indexed failing trial; the result slice is nil.
// Once a failure is observed, trials that have not yet started are
// skipped (trials already in flight run to completion).
//
// Map is safe to call from multiple goroutines with the same Pool.
func Map[T any](p Pool, n int, fn func(trial int) (T, error)) ([]T, error) {
	out, _, err := MapTimed(p, n, fn)
	return out, err
}

// MapTimed is Map plus execution statistics: the batch wall-clock time
// and the per-trial durations, which the CLIs surface as timing
// reports. The returned results and error are identical to Map's.
func MapTimed[T any](p Pool, n int, fn func(trial int) (T, error)) ([]T, Stats, error) {
	if n < 0 {
		return nil, Stats{}, fmt.Errorf("runner: negative trial count %d", n)
	}
	workers := p.size(n)
	stats := Stats{Workers: workers}
	if n == 0 {
		return []T{}, stats, nil
	}
	start := time.Now()
	results := make([]T, n)
	timings := make([]TrialTiming, n)
	errs := make([]error, n)

	if workers == 1 {
		// Serial reference path: inline, in order, stop at first error.
		for i := 0; i < n; i++ {
			t0 := time.Now()
			v, err := fn(i)
			timings[i] = TrialTiming{Trial: i, Elapsed: time.Since(t0)}
			if err != nil {
				stats.Wall = time.Since(start)
				stats.Trials = timings[:i+1]
				return nil, stats, &TrialError{Trial: i, Err: err}
			}
			results[i] = v
		}
		stats.Wall = time.Since(start)
		stats.Trials = timings
		return results, stats, nil
	}

	var (
		mu      sync.Mutex
		next    int  // next trial index to claim
		failed  bool // stop claiming new trials after any failure
		panicAt *trialPanic
		wg      sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || panicAt != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				t0 := time.Now()
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicAt == nil || i < panicAt.trial {
								panicAt = &trialPanic{trial: i, value: r}
							}
							mu.Unlock()
						}
					}()
					v, err := fn(i)
					timings[i] = TrialTiming{Trial: i, Elapsed: time.Since(t0)}
					if err != nil {
						mu.Lock()
						errs[i] = err
						failed = true
						mu.Unlock()
						return
					}
					results[i] = v
				}()
			}
		}()
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	stats.Trials = timings
	if panicAt != nil {
		panic(fmt.Sprintf("runner: trial %d panicked: %v", panicAt.trial, panicAt.value))
	}
	for i, err := range errs {
		if err != nil {
			return nil, stats, &TrialError{Trial: i, Err: err}
		}
	}
	return results, stats, nil
}

// TrialSeed derives the RNG seed for one trial of a replicated batch
// from a base seed. Trial 0 keeps the base seed unchanged, so a
// single-trial batch reproduces exactly the run that the base seed
// names; later trials get decorrelated seeds through a splitmix64-style
// finalizer. The derivation is pure — same (base, trial) in, same seed
// out — which is what keeps replicated parallel runs deterministic.
func TrialSeed(base uint64, trial int) uint64 {
	if trial == 0 {
		return base
	}
	z := base + uint64(trial)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
