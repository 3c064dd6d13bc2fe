// Command perfbench is the repository benchmark. It drives the GS³
// simulator through its public entry points (netsim.Build,
// Sim.Configure, RunSweeps, KillDisk, ServeTraffic, Network.Snapshot,
// check.Invariant, check.Fixpoint) on one workload and prints the
// measured metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 a traced pass of the same workload and
// seed runs after each untraced one, and the metrics are the per-layer
// ones. README.md lists the workloads, every metric, and which layer
// metric should move which end-to-end metric.
//
// A run is one process with one driving goroutine. It repeats the
// workload — set-up, timed phase, untimed verification — until
// --seconds have passed and at least minReps repetitions ran, so every
// timing is a median over repetitions or operations. Each repetition
// rebuilds the field from the seed and must reproduce the same digest
// of simulated outputs; a mismatch, a failed correctness check, or any
// error makes the run exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// minReps is the fewest repetitions of a workload in one run, so
	// that setup_s is a median of several set-ups.
	minReps = 3
	// minTracedPairs is the fewest untraced+traced repetition pairs in
	// a --trace 1 run.
	minTracedPairs = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation of the benchmark.
type config struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every field's node count: 1 for the benchmark,
	// less in the smoke test.
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating the workload")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *traceOn != 0 && *traceOn != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceOn)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "perfbench: need --seconds >= 0\n")
		return 2
	}
	return runConfig(config{workload: w, seed: *seed, seconds: *seconds, trace: *traceOn == 1, scale: 1}, stdout, stderr)
}

// runConfig measures one configuration, prints the report and returns
// the exit code.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload.name, err)
		return 1
	}
	res.report(stdout)
	if !res.correct() {
		for _, f := range res.faults {
			fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", cfg.workload.name, f)
		}
		return 1
	}
	return 0
}

// result is the outcome of one run: every repetition, traced or not.
type result struct {
	cfg    config
	reps   []*rep // untraced repetitions
	traced []*rep // traced repetitions (--trace 1 only)
	prof   profileTally
	faults []string
}

// measure repeats the workload until the time budget is spent.
func measure(cfg config) (*result, error) {
	res := &result{cfg: cfg}
	start := time.Now()
	for {
		r, err := runRep(cfg, false)
		if err != nil {
			return nil, err
		}
		res.reps = append(res.reps, r)
		if cfg.trace {
			t, err := runRep(cfg, true)
			if err != nil {
				return nil, err
			}
			res.traced = append(res.traced, t)
			if err := res.prof.add(t.tr.profile); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		enough := len(res.reps) >= minReps
		if cfg.trace {
			enough = len(res.traced) >= minTracedPairs
		}
		if enough && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	res.check()
	return res, nil
}

// runRep runs one repetition of the workload, traced or not.
func runRep(cfg config, traced bool) (*rep, error) {
	// Start every repetition from a collected heap, so garbage left by
	// the previous one does not bill its collection to this one.
	runtime.GC()
	r := newRep(cfg, traced)
	if err := r.tr.begin(); err != nil {
		return nil, err
	}
	err := cfg.workload.run(r)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// check gathers every correctness failure of the run: each
// repetition's own, and any repetition whose digest differs from the
// first one's (the simulation must be deterministic for a seed, traced
// or not).
func (res *result) check() {
	all := append(slices.Clone(res.reps), res.traced...)
	want := all[0].digest()
	for i, r := range all {
		for _, f := range r.faults {
			res.faults = append(res.faults, fmt.Sprintf("repetition %d: %s", i+1, f))
		}
		if got := r.digest(); got != want {
			res.faults = append(res.faults, fmt.Sprintf("repetition %d: digest %016x, want %016x: the simulation is not deterministic", i+1, got, want))
		}
	}
}

func (res *result) correct() bool { return len(res.faults) == 0 }

// attempts sums the repetitions' attempted and failed operations.
func (res *result) attempts() (attempted, failed int) {
	for _, r := range res.reps {
		attempted += r.attempted
		failed += r.failed
	}
	return attempted, failed
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable report and, last, the JSON line.
func (res *result) report(out io.Writer) {
	first := res.reps[0]
	fmt.Fprintf(out, "perfbench workload=%s seed=%d nodes=%d reps=%d traced=%d cpus=%d gomaxprocs=%d %s\n",
		res.cfg.workload.name, res.cfg.seed, first.nodes, len(res.reps), len(res.traced),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "  %s\n", res.cfg.workload.why)

	e2e := res.endToEnd()
	var named []namedValue
	var metrics map[string]jsonMetric
	if res.cfg.trace {
		named = res.perLayer()
		metrics = toJSON(named, perLayerMetrics)
	} else {
		named = e2e
		metrics = toJSON(named, endToEndMetrics)
	}
	fmt.Fprintln(out, "end-to-end (untraced):")
	for _, v := range e2e {
		fmt.Fprintf(out, "  %-26s %14.6g %-8s %s\n", v.name, v.value, unitOf(v.name), v.note)
	}
	fmt.Fprintln(out, "workload metrics (untraced):")
	for _, v := range res.workloadMetrics() {
		fmt.Fprintf(out, "  %-26s %14.6g %-8s %s\n", v.name, v.value, v.unit, v.note)
	}
	if res.cfg.trace {
		fmt.Fprintln(out, "per-layer (traced pass; counts are per repetition):")
		for _, v := range named {
			fmt.Fprintf(out, "  %-26s %14.6g %s\n", v.name, v.value, unitOf(v.name))
		}
		res.printSpans(out)
	}
	attempted, failed := res.attempts()
	fmt.Fprintf(out, "failure_share %.6g (%d failed of %d %s)\n",
		float64(failed)/float64(max(attempted, 1)), failed, attempted, res.cfg.workload.attempt)
	fmt.Fprintf(out, "digest %016x (over %d repetitions; a mismatch fails the run)\n", first.digest(), len(res.reps)+len(res.traced))

	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), attempted, failed, metrics})
	if err != nil {
		// Every value is finite by construction; a NaN is a bug here.
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

// namedValue is one reported number with its provenance.
type namedValue struct {
	name  string
	value float64
	unit  string // only for workload metrics; declared metrics take theirs from the tables
	note  string
}

func toJSON(vals []namedValue, decl []metricDecl) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(decl))
	for _, v := range vals {
		out[v.name] = jsonMetric{Value: finite(v.value), Unit: unitOf(v.name)}
	}
	for _, d := range decl {
		if _, ok := out[d.name]; !ok {
			panic("perfbench: metric " + d.name + " was not computed")
		}
	}
	return out
}

// finite maps NaN and ±Inf (a ratio with nothing under it) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ---- statistics ----

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic that has at least ten
// samples beyond it, and the percentile it sits at; ok is false with
// fewer than eleven samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	if len(xs) < 11 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s)), true
}

// timing describes a sample of timings for the report.
func timing(xs []float64, unit, what string) string {
	note := fmt.Sprintf("median of %d %s", len(xs), what)
	if len(xs) >= 4 {
		s := slices.Clone(xs)
		sort.Float64s(s)
		note += fmt.Sprintf(" [q1 %.6g, q3 %.6g]", s[len(s)/4], s[3*len(s)/4])
	}
	if v, p, ok := tail(xs); ok && p >= 50 {
		note += fmt.Sprintf("; p%.4g %.6g %s (10 beyond)", p, v, unit)
	}
	return note
}
