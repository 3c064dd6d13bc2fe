// Package gather implements convergecast over the GS³ head graph: the
// in-network aggregation pattern ("sense-compute-actuate") the paper's
// introduction motivates the structure for. Every associate reports to
// its cell head (one intra-cell message over a link of bounded length
// ≤ R + 2Rt/√3), each head merges its cell's samples, and aggregates
// flow up the parent tree to the big node — one inter-cell message per
// head per round.
//
// # Purity and thread safety
//
// Collect is a pure function of its inputs: it walks an immutable
// snapshot, advances no virtual time, touches no radio or fault state,
// and draws no randomness — the round is instantaneous and lossless by
// construction. That makes it safe to call from any goroutine, on any
// snapshot, concurrently with a live simulation. The packet-level
// counterpart — real per-hop deliveries on the virtual clock, with
// loss, latency, and in-flight healing — is internal/traffic.
package gather

import (
	"fmt"

	"gs3/internal/core"
	"gs3/internal/radio"
)

// Sample is a mergeable aggregate of sensor readings.
type Sample struct {
	Sum   float64
	Count int
	Min   float64
	Max   float64
}

// NewSample wraps a single reading.
func NewSample(v float64) Sample {
	return Sample{Sum: v, Count: 1, Min: v, Max: v}
}

// Merge combines two aggregates.
func (s Sample) Merge(t Sample) Sample {
	if s.Count == 0 {
		return t
	}
	if t.Count == 0 {
		return s
	}
	out := Sample{Sum: s.Sum + t.Sum, Count: s.Count + t.Count, Min: s.Min, Max: s.Max}
	if t.Min < out.Min {
		out.Min = t.Min
	}
	if t.Max > out.Max {
		out.Max = t.Max
	}
	return out
}

// Mean returns the aggregate mean (0 for an empty sample).
func (s Sample) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Result is one convergecast round.
type Result struct {
	// Root is the merged aggregate delivered at the big node.
	Root Sample
	// PerCell holds each head's cell-level aggregate.
	PerCell map[radio.NodeID]Sample
	// IntraMessages is the number of associate→head reports.
	IntraMessages int
	// InterMessages is the number of head→parent forwards.
	InterMessages int
	// MaxDepth is the longest head-graph path an aggregate traveled.
	MaxDepth int
	// Unreported lists nodes whose reading could not reach the big node
	// (uncovered nodes, or heads disconnected from the root).
	Unreported []radio.NodeID
}

// Collect runs one convergecast round over the snapshot: readings maps
// node IDs to their sensor values (nodes without an entry contribute
// nothing). It returns an error when the snapshot has no big node.
func Collect(snap core.Snapshot, readings map[radio.NodeID]float64) (Result, error) {
	views := make(map[radio.NodeID]core.NodeView, len(snap.Nodes))
	for _, v := range snap.Nodes {
		views[v.ID] = v
	}
	if _, ok := views[snap.BigID]; !ok {
		return Result{}, fmt.Errorf("gather: snapshot has no big node")
	}

	res := Result{PerCell: map[radio.NodeID]Sample{}}

	// Phase 1: intra-cell reports. Each covered node's reading lands in
	// its head's cell aggregate. Heads sample locally for free.
	for _, v := range snap.Nodes {
		reading, has := readings[v.ID]
		if !has {
			continue
		}
		switch {
		case v.IsHead():
			res.PerCell[v.ID] = res.PerCell[v.ID].Merge(NewSample(reading))
		case v.Status == core.StatusAssociate:
			hv, ok := views[v.Head]
			if !ok || !hv.IsHead() {
				res.Unreported = append(res.Unreported, v.ID)
				continue
			}
			res.PerCell[v.Head] = res.PerCell[v.Head].Merge(NewSample(reading))
			res.IntraMessages++
		default:
			res.Unreported = append(res.Unreported, v.ID)
		}
	}

	// Phase 2: convergecast up the parent tree. Process heads deepest
	// first so each forwards exactly one merged aggregate.
	root := snap.Root()
	if rv, ok := views[root]; !ok || !rv.IsHead() {
		return Result{}, fmt.Errorf("gather: no root head (root %d is not a live head)", root)
	}
	depth := treeDepths(views, root)
	order := headsByDepthDesc(views, depth)
	pending := map[radio.NodeID]Sample{}
	for h, s := range res.PerCell {
		pending[h] = s
	}
	for _, h := range order {
		s, has := pending[h]
		if !has || h == root {
			continue
		}
		hv := views[h]
		pv, ok := views[hv.Parent]
		if !ok || !pv.IsHead() {
			res.Unreported = append(res.Unreported, h)
			delete(pending, h)
			continue
		}
		pending[hv.Parent] = pending[hv.Parent].Merge(s)
		res.InterMessages++
		if d := depth[h]; d > res.MaxDepth {
			res.MaxDepth = d
		}
		delete(pending, h)
	}
	res.Root = pending[root]
	return res, nil
}

// treeDepths computes each head's hop depth from the root by walking
// parents (bounded by the head count to survive broken chains).
func treeDepths(views map[radio.NodeID]core.NodeView, root radio.NodeID) map[radio.NodeID]int {
	depth := map[radio.NodeID]int{root: 0}
	var walk func(id radio.NodeID, hops int) int
	walk = func(id radio.NodeID, hops int) int {
		if d, ok := depth[id]; ok {
			return d
		}
		if hops <= 0 {
			return 1 << 20 // cycle or overlong chain: effectively unreachable
		}
		v, ok := views[id]
		if !ok || !v.IsHead() || v.Parent == id {
			return 1 << 20
		}
		d := walk(v.Parent, hops-1)
		if d >= 1<<20 {
			depth[id] = 1 << 20
			return depth[id]
		}
		depth[id] = d + 1
		return depth[id]
	}
	for id, v := range views {
		if v.IsHead() {
			walk(id, len(views))
		}
	}
	return depth
}

// headsByDepthDesc returns head IDs ordered deepest first (ties by ID
// for determinism).
func headsByDepthDesc(views map[radio.NodeID]core.NodeView, depth map[radio.NodeID]int) []radio.NodeID {
	var out []radio.NodeID
	for id, v := range views {
		if v.IsHead() {
			out = append(out, id)
		}
	}
	// Insertion sort on (depth desc, id asc): head counts are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if depth[a] > depth[b] || (depth[a] == depth[b] && a < b) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}
