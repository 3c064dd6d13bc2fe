// Package baseline implements the two clustering schemes the paper
// compares GS³ against in its Related Work (§6):
//
//   - LEACH [10]: heads self-elect with a fixed probability each round;
//     every other node joins the nearest head. Neither placement nor
//     the number of clusters is guaranteed, and perturbations are
//     healed by globally repeating the clustering operation.
//   - Hop-bounded clustering [3]-style: geography-unaware BFS growth
//     bounded by a logical (hop) radius. Clusters have bounded hop
//     diameter but unbounded geographic spread and large overlap.
//
// Both operate on a plain deployment and report the metrics the
// comparison experiments need: geographic cluster radii, overlap, and
// re-clustering message cost.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/rng"
)

// Clustering is the result of one clustering pass: for each node, the
// index (into Heads) of its cluster, and the head set itself.
type Clustering struct {
	Positions []geom.Point
	Heads     []int // indices into Positions
	Cluster   []int // Cluster[i] = index into Heads, or -1 if unclustered
	// Messages is the number of protocol messages the pass cost, under
	// the same accounting GS³ uses (one per advertisement, join, or
	// relay).
	Messages int
}

// Radii returns the distance from every clustered node to its cluster
// head.
func (c Clustering) Radii() []float64 {
	var out []float64
	for i, cl := range c.Cluster {
		if cl < 0 {
			continue
		}
		h := c.Positions[c.Heads[cl]]
		out = append(out, c.Positions[i].Dist(h))
	}
	return out
}

// MaxRadius returns the maximum cluster radius (0 when empty).
func (c Clustering) MaxRadius() float64 {
	m := 0.0
	for _, r := range c.Radii() {
		if r > m {
			m = r
		}
	}
	return m
}

// OverlapFraction returns the fraction of clustered nodes that are
// strictly closer to some other cluster's head than to their own — the
// geographic-overlap metric of the comparison (GS³'s fixpoint F₃ makes
// it zero by construction).
func (c Clustering) OverlapFraction() float64 {
	if len(c.Heads) == 0 {
		return 0
	}
	total, misplaced := 0, 0
	for i, cl := range c.Cluster {
		if cl < 0 {
			continue
		}
		total++
		own := c.Positions[i].Dist(c.Positions[c.Heads[cl]])
		for hi, h := range c.Heads {
			if hi == cl {
				continue
			}
			if c.Positions[i].Dist(c.Positions[h]) < own-1e-9 {
				misplaced++
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(misplaced) / float64(total)
}

// LEACH runs one round of LEACH-style clustering: every node becomes a
// head with probability p; every non-head joins the nearest head within
// txRange. Nodes with no head in range stay unclustered (LEACH would
// have them transmit directly at high power).
func LEACH(dep field.Deployment, p, txRange float64, src *rng.Source) (Clustering, error) {
	if p <= 0 || p >= 1 {
		return Clustering{}, fmt.Errorf("baseline: head probability must be in (0,1), got %v", p)
	}
	n := dep.N()
	c := Clustering{
		Positions: dep.Positions,
		Cluster:   make([]int, n),
	}
	headIndex := make(map[int]int)
	for i := 0; i < n; i++ {
		if src.Float64() < p {
			headIndex[i] = len(c.Heads)
			c.Heads = append(c.Heads, i)
			c.Messages++ // head advertisement broadcast
		}
	}
	for i := 0; i < n; i++ {
		if hi, isHead := headIndex[i]; isHead {
			c.Cluster[i] = hi
			continue
		}
		c.Cluster[i] = -1
		best, bestD := -1, txRange
		for hi, h := range c.Heads {
			if d := dep.Positions[i].Dist(dep.Positions[h]); d <= bestD {
				best, bestD = hi, d
			}
		}
		if best >= 0 {
			c.Cluster[i] = best
			c.Messages++ // join message
		}
	}
	return c, nil
}

// LEACHHeal models LEACH's response to a perturbation: the clustering
// operation is repeated globally. It returns the fresh clustering; the
// healing cost is the full Messages count of the new pass — O(n)
// regardless of how small the perturbation was.
func LEACHHeal(dep field.Deployment, p, txRange float64, src *rng.Source) (Clustering, error) {
	return LEACH(dep, p, txRange, src)
}

// DataRoundReport summarizes one LEACH data-gathering round (the
// "steady-state phase" of the LEACH round structure): every member
// transmits its reading to its cluster head, each head aggregates and
// transmits once directly to the sink. Per-leg message loss applies as
// an independent Bernoulli drop.
type DataRoundReport struct {
	// Generated counts readings offered (one per clustered node,
	// heads included — a head's own reading needs no member leg).
	Generated int
	// Delivered counts readings that survived every leg to the sink: a
	// member's reading needs its member→head leg AND its head's
	// head→sink leg; a head's own reading needs only the head→sink leg.
	// Unclustered nodes are counted generated but never delivered.
	Delivered int
	// HeadTx counts transmissions by heads (one per head per round).
	HeadTx int
}

// DataRound plays one LEACH steady-state data round over an existing
// clustering: member readings travel member→head, then one aggregate
// per head travels head→sink directly (LEACH's single-hop long-range
// transmission). Each leg is dropped independently with probability
// loss, drawn from src, so reports are deterministic per (clustering,
// loss, seed). This is the apples-to-apples counterpart of the GS³
// convergecast data plane (internal/traffic) for delivery-ratio
// comparisons: LEACH pays one hop per member plus one long-range hop
// per head, while GS³ relays hop-by-hop up the parent tree.
func DataRound(c Clustering, loss float64, src *rng.Source) (DataRoundReport, error) {
	if loss < 0 || loss >= 1 {
		return DataRoundReport{}, fmt.Errorf("baseline: loss must be in [0,1), got %v", loss)
	}
	if src == nil {
		return DataRoundReport{}, fmt.Errorf("baseline: nil random source")
	}
	var rep DataRoundReport
	// Each head's aggregate→sink leg survives or not once per round;
	// draw in head order for determinism.
	headUp := make([]bool, len(c.Heads))
	for hi := range c.Heads {
		headUp[hi] = src.Float64() >= loss
		rep.HeadTx++
	}
	headIndex := make(map[int]int, len(c.Heads))
	for hi, h := range c.Heads {
		headIndex[h] = hi
	}
	for i, cl := range c.Cluster {
		rep.Generated++
		if cl < 0 {
			continue // unclustered: LEACH has no route for it here
		}
		if hi, isHead := headIndex[i]; isHead {
			if headUp[hi] {
				rep.Delivered++
			}
			continue
		}
		if src.Float64() >= loss && headUp[cl] {
			rep.Delivered++
		}
	}
	return rep, nil
}

// HopCluster grows geography-unaware clusters by BFS on the
// connectivity graph: repeatedly pick the lowest-index unclustered node
// as a head and absorb everything within maxHops hops (among still
// unclustered nodes). txRange defines graph edges.
func HopCluster(dep field.Deployment, maxHops int, txRange float64) (Clustering, error) {
	if maxHops <= 0 {
		return Clustering{}, fmt.Errorf("baseline: maxHops must be positive, got %d", maxHops)
	}
	n := dep.N()
	c := Clustering{
		Positions: dep.Positions,
		Cluster:   make([]int, n),
	}
	for i := range c.Cluster {
		c.Cluster[i] = -1
	}
	adj := buildAdjacency(dep.Positions, txRange)
	for start := 0; start < n; start++ {
		if c.Cluster[start] >= 0 {
			continue
		}
		hi := len(c.Heads)
		c.Heads = append(c.Heads, start)
		c.Cluster[start] = hi
		c.Messages++ // head announcement
		// BFS bounded by maxHops over unclustered nodes.
		frontier := []int{start}
		for depth := 0; depth < maxHops && len(frontier) > 0; depth++ {
			var next []int
			for _, u := range frontier {
				for _, v := range adj[u] {
					if c.Cluster[v] < 0 {
						c.Cluster[v] = hi
						c.Messages += 2 // invite + join along the tree
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
	}
	return c, nil
}

// buildAdjacency builds the connectivity lists with a simple uniform
// grid, mirroring the radio medium's index.
func buildAdjacency(pos []geom.Point, txRange float64) [][]int {
	type key struct{ x, y int }
	cell := txRange
	grid := map[key][]int{}
	at := func(p geom.Point) key {
		return key{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
	}
	for i, p := range pos {
		grid[at(p)] = append(grid[at(p)], i)
	}
	adj := make([][]int, len(pos))
	for i, p := range pos {
		base := at(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[key{base.x + dx, base.y + dy}] {
					if j != i && pos[i].Dist(pos[j]) <= txRange {
						adj[i] = append(adj[i], j)
					}
				}
			}
		}
		sort.Ints(adj[i])
	}
	return adj
}
