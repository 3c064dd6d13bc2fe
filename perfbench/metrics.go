package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metricDecl is a metric as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// endToEndMetrics are printed with --trace 0 by every workload. Each
// workload defines op_ms by its own operation (see workload.op).
var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"heap_bytes_per_node", "B"},
	{"configure_msgs_per_node", "msgs"},
}

// shareLayers are the gs3 packages CPU samples are attributed to; any
// other gs3 package and the benchmark's own code count as "other", and
// samples with no such frame (GC workers, the scheduler) as runtime.
var shareLayers = []string{"sim", "radio", "core", "check", "traffic", "hexlat", "geom", "field", "netsim", "rng"}

// perLayerMetrics are printed with --trace 1 by every workload; a layer
// a workload does not exercise reads 0. Counts cover one repetition's
// timed phase (configure: the Configure; maintain: the timed rounds and
// the strikes; traffic: Plane.Run).
var perLayerMetrics = []metricDecl{
	// Simulated results, deterministic for a seed.
	{"configure_vtime_s", "vs"},
	{"heal_rounds", "heartbeats"},
	{"heal_msgs_per_killed", "msgs"},
	{"latency_p50_vs", "vs"},
	{"latency_p999_vs", "vs"},
	// Host-time results of the untraced repetitions: the names op_ms
	// stands for, and maintain's heal time.
	{"configure_nodes_per_s", "nodes/s"},
	{"round_ms", "ms"},
	{"heal_s", "s"},
	{"traffic_pkts_per_s", "pkts/s"},
	// sim
	{"sim.events_fired", "count"},
	{"sim.events_scheduled", "count"},
	{"sim.fired_ratio", "ratio"},
	{"sim.events_per_pkt", "events/pkt"},
	{"sim.events_per_round", "events/round"},
	{"sim.self_share", "share"},
	// radio
	{"radio.range_queries", "count"},
	{"radio.range_queries_per_node", "queries/node"},
	{"radio.broadcasts", "count"},
	{"radio.unicasts", "count"},
	{"radio.deliveries", "count"},
	{"radio.self_share", "share"},
	// core
	{"core.head_orgs", "count"},
	{"core.heads_selected", "count"},
	{"core.reply_msgs", "count"},
	{"core.parent_seeks", "count"},
	{"core.head_shifts", "count"},
	{"core.cell_shifts", "count"},
	{"core.promotions", "count"},
	{"core.snapshot_ms", "ms"},
	{"core.round_ms_tail", "ms"},
	{"core.self_share", "share"},
	// check
	{"check.invariant_ms", "ms"},
	{"check.fixpoint_ms", "ms"},
	{"check.fixpoint_calls", "count"},
	{"check.heal_share", "share"},
	{"check.self_share", "share"},
	// traffic, hexlat, geom
	{"traffic.hops", "count"},
	{"traffic.hops_per_pkt", "hops/pkt"},
	{"traffic.ns_per_hop", "ns"},
	{"traffic.retries", "count"},
	{"traffic.detours", "count"},
	{"traffic.greedy_ratio", "ratio"},
	{"traffic.lost_no_route", "count"},
	{"traffic.lost_hop_fail", "count"},
	{"traffic.lost_ttl", "count"},
	{"traffic.expired", "count"},
	{"traffic.max_head_forwards", "count"},
	{"traffic.self_share", "share"},
	{"hexlat.self_share", "share"},
	{"geom.self_share", "share"},
	// netsim, field, rng
	{"netsim.build_s", "s"},
	{"netsim.configure_s", "s"},
	{"netsim.settle_s", "s"},
	{"netsim.killdisk_ms", "ms"},
	{"netsim.killed", "count"},
	{"netsim.self_share", "share"},
	{"field.self_share", "share"},
	{"rng.self_share", "share"},
	// runtime and everything outside the listed layers
	{"runtime.allocs_per_pkt", "allocs/pkt"},
	{"runtime.bytes_per_pkt", "B/pkt"},
	{"runtime.allocs_per_round", "allocs/round"},
	{"runtime.allocs_per_node", "allocs/node"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_share", "share"},
	{"other.self_share", "share"},
	// tracing
	{"trace.overhead", "ratio"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(endToEndMetrics, perLayerMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

func unitOf(name string) string { return units[name] }

// endToEnd computes the end-to-end metrics from the untraced
// repetitions.
func (res *result) endToEnd() []namedValue {
	var setup, heap, ops []float64
	for _, r := range res.reps {
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, r.heapPerNode)
		ops = append(ops, r.ops...)
	}
	w := res.cfg.workload
	n := len(res.reps)
	return []namedValue{
		{name: "setup_s", value: median(setup), note: fmt.Sprintf("median of %d set-ups: %s", n, w.setup)},
		{name: "op_ms", value: median(ops), note: timing(ops, "ms", w.op)},
		{name: "heap_bytes_per_node", value: median(heap), note: fmt.Sprintf("median of %d; live heap after runtime.GC() at the end of set-up", n)},
		{name: "configure_msgs_per_node", value: res.reps[0].layer["configure_msgs_per_node"], note: "(broadcasts + unicasts + replies) / n, deterministic"},
	}
}

// hostSamples pools one host-time sample series over the untraced
// repetitions.
func (res *result) hostSamples(name string) []float64 {
	var out []float64
	for _, r := range res.reps {
		out = append(out, r.host[name]...)
	}
	return out
}

// workloadMetrics lists the workload's own named results: host-time
// medians with their sample counts, then the deterministic results.
func (res *result) workloadMetrics() []namedValue {
	var out []namedValue
	for _, h := range res.cfg.workload.hostMetrics() {
		xs := res.hostSamples(h.name)
		out = append(out, namedValue{name: h.name, value: median(xs), unit: h.unit, note: timing(xs, h.unit, h.what)})
	}
	first := res.reps[0]
	for _, name := range res.cfg.workload.results {
		unit := unitOf(name)
		if unit == "" {
			unit = "-"
		}
		out = append(out, namedValue{name: name, value: first.layer[name], unit: unit, note: "deterministic for the seed"})
	}
	return out
}

// perLayer computes every per-layer metric. Counts and simulated
// results come from the first repetition (all agree, the digest checks
// it); span timings from the traced repetitions; CPU shares from their
// profiles; allocation and GC figures from the untraced repetitions,
// which tracing does not disturb.
func (res *result) perLayer() []namedValue {
	first := res.reps[0]
	vals := map[string]float64{}
	for k, v := range first.layer {
		vals[k] = v
	}
	for _, h := range res.cfg.workload.hostMetrics() {
		vals[h.name] = median(res.hostSamples(h.name))
	}
	if v, _, ok := tail(res.hostSamples("round_ms")); ok {
		vals["core.round_ms_tail"] = v
	}
	for k, xs := range res.untracedRuntime() {
		vals[k] = median(xs)
	}
	if hops := first.layer["traffic.hops"]; hops > 0 {
		var ns []float64
		for _, r := range res.reps {
			ns = append(ns, float64(r.timed.Nanoseconds())/hops)
		}
		vals["traffic.ns_per_hop"] = median(ns)
	}

	spans := spanStats(res.traced)
	vals["core.snapshot_ms"] = spans.meanUnder("strike", "Snapshot")
	vals["check.invariant_ms"] = spans.meanMs("Invariant")
	vals["check.fixpoint_ms"] = spans.meanUnder("strike", "Fixpoint")
	vals["netsim.build_s"] = spans.meanMs("Build") / 1e3
	vals["netsim.configure_s"] = spans.meanMs("Configure") / 1e3
	vals["netsim.settle_s"] = spans.meanMs("settle") / 1e3
	vals["netsim.killdisk_ms"] = spans.meanMs("KillDisk")
	if strikes := spans.total("strike"); strikes > 0 {
		snap, _ := spans.under("strike", "Snapshot")
		fix, _ := spans.under("strike", "Fixpoint")
		vals["check.heal_share"] = (snap + fix) / strikes
	}

	for _, l := range shareLayers {
		vals[l+".self_share"] = res.prof.share(l)
	}
	vals["runtime.gc_share"] = res.prof.share("runtime")
	vals["other.self_share"] = res.prof.share("other")

	var untraced, traced []float64
	for _, r := range res.reps {
		untraced = append(untraced, r.timed.Seconds())
	}
	for _, r := range res.traced {
		traced = append(traced, r.timed.Seconds())
	}
	vals["trace.overhead"] = median(traced)/median(untraced) - 1

	out := make([]namedValue, 0, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		out = append(out, namedValue{name: d.name, value: vals[d.name]})
	}
	return out
}

// untracedRuntime pools the runtime.* figures of the untraced
// repetitions.
func (res *result) untracedRuntime() map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range res.reps {
		for k, v := range r.runtime {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// spanTable aggregates the traced repetitions' spans by path.
type spanTable map[string]*spanAgg

type spanAgg struct {
	count      int
	totalMs    float64
	selfMs     float64
	leaf, path string
}

func spanStats(reps []*rep) spanTable {
	t := spanTable{}
	for _, r := range reps {
		child := make([]time.Duration, len(r.tr.spans))
		for _, s := range r.tr.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.tr.spans {
			a := t[s.path]
			if a == nil {
				a = &spanAgg{leaf: s.name, path: s.path}
				t[s.path] = a
			}
			d := s.end - s.start
			a.count++
			a.totalMs += float64(d) / 1e6
			a.selfMs += float64(d-child[i]) / 1e6
		}
	}
	return t
}

// meanMs is the mean duration of every span with this leaf name.
func (t spanTable) meanMs(leaf string) float64 {
	var sum float64
	n := 0
	for _, a := range t {
		if a.leaf == leaf {
			sum += a.totalMs
			n += a.count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// total is the summed duration (ms) of every span with this leaf name.
func (t spanTable) total(leaf string) float64 {
	var sum float64
	for _, a := range t {
		if a.leaf == leaf {
			sum += a.totalMs
		}
	}
	return sum
}

// under is the summed duration (ms) and count of the spans named leaf
// whose parent is named parent.
func (t spanTable) under(parent, leaf string) (totalMs float64, count int) {
	for _, a := range t {
		if a.leaf == leaf && strings.HasSuffix(a.path, parent+"/"+leaf) {
			totalMs += a.totalMs
			count += a.count
		}
	}
	return totalMs, count
}

// meanUnder is the mean duration (ms) of the spans named leaf whose
// parent is named parent, 0 for none.
func (t spanTable) meanUnder(parent, leaf string) float64 {
	total, n := t.under(parent, leaf)
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// printSpans writes the span tree of the traced repetitions with each
// span's self time and the CPU shares of its samples by layer (the
// shares of one span sum to 1).
func (res *result) printSpans(out io.Writer) {
	t := spanStats(res.traced)
	paths := make([]string, 0, len(t))
	for p := range t {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	fmt.Fprintf(out, "spans (%d traced repetitions; CPU samples %.0f ms):\n", len(res.traced), float64(res.prof.total)/1e6)
	fmt.Fprintf(out, "  %-40s %7s %12s %12s  %s\n", "span", "count", "total_ms", "self_ms", "cpu shares by layer")
	for _, p := range append(paths, unlabeled) {
		a := t[p]
		if a == nil {
			a = &spanAgg{path: p}
		}
		fmt.Fprintf(out, "  %-40s %7d %12.3f %12.3f  %s\n", p, a.count, a.totalMs, a.selfMs, res.prof.spanShares(p))
	}
}
