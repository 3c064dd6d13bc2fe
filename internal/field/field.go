// Package field generates node deployments for GS³ experiments.
//
// The paper's node-distribution model (§2.1, §4.3.4) is a planar Poisson
// process: nodes are uniformly distributed with density λ, defined as
// the average number of nodes within any circular area of radius 1
// (note: the paper folds the π factor into λ, and so does this package —
// the count in a disk of radius r is Poisson with mean λ·r²).
package field

import (
	"fmt"
	"math"

	"gs3/internal/geom"
	"gs3/internal/rng"
)

// Deployment is a set of node positions plus the designated big-node
// position. Index 0 of Positions is always the big node.
type Deployment struct {
	Positions []geom.Point
}

// N returns the number of nodes, including the big node.
func (d Deployment) N() int {
	return len(d.Positions)
}

// Config describes a deployment to generate.
type Config struct {
	// Radius of the circular deployment region, centered on the big node.
	Radius float64
	// Lambda is the density: average node count in a unit-radius disk
	// (paper convention: count in radius-r disk ~ Poisson(λ·r²)).
	Lambda float64
	// Gaps lists circular areas to clear of nodes after generation,
	// modeling R_t-gaps and other coverage holes.
	Gaps []Gap
	// MinNodes, if > 0, re-rejects deployments smaller than this by
	// topping up with uniform nodes. Useful to keep tests meaningful at
	// low densities.
	MinNodes int
}

// Gap is a circular hole in the deployment.
type Gap struct {
	Center geom.Point
	Radius float64
}

// Obstacle is a polygonal region that both clears deployed nodes and
// occludes radio: no node sits inside it, and links whose line of sight
// crosses it are dead (radio.Medium consults the same polygons). Unlike
// a Gap, an obstacle can be non-convex, so healing must route around
// arbitrary hole shapes rather than circular ones.
type Obstacle = geom.Polygon

// Poisson generates a Poisson deployment in a disk of cfg.Radius around
// the origin, with the big node at the exact center. It returns an error
// for a radius or density that is not positive and finite, and, before
// drawing anything, for a mean node count above 2³¹−1, the int32 node
// IDs.
func Poisson(cfg Config, src *rng.Source) (Deployment, error) {
	if !positiveFinite(cfg.Radius) {
		return Deployment{}, fmt.Errorf("field: radius must be positive and finite, got %v", cfg.Radius)
	}
	if !positiveFinite(cfg.Lambda) {
		return Deployment{}, fmt.Errorf("field: density must be positive and finite, got %v", cfg.Lambda)
	}
	// Mean count in a radius-r disk is λ·r² under the paper's convention.
	mean := cfg.Lambda * cfg.Radius * cfg.Radius
	if mean > math.MaxInt32 {
		return Deployment{}, fmt.Errorf("field: radius=%v density=%v expect %.3g nodes, more than the %d node IDs", cfg.Radius, cfg.Lambda, mean, math.MaxInt32)
	}
	n := src.Poisson(mean)
	if n < cfg.MinNodes {
		n = cfg.MinNodes
	}
	pts := make([]geom.Point, 0, n+1)
	pts = append(pts, geom.Point{}) // big node at the center
	for i := 0; i < n; i++ {
		x, y := src.InDisk(cfg.Radius)
		p := geom.Point{X: x, Y: y}
		if inGap(p, cfg.Gaps) {
			continue
		}
		pts = append(pts, p)
	}
	return Deployment{Positions: pts}, nil
}

// positiveFinite reports whether x is a usable length or density. A
// plain x <= 0 test lets NaN through, and +Inf would size an unbounded
// deployment.
func positiveFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

func inGap(p geom.Point, gaps []Gap) bool {
	for _, g := range gaps {
		if p.Dist(g.Center) < g.Radius {
			return true
		}
	}
	return false
}

// Grid generates a deterministic deployment with nodes on a triangular
// grid of the given spacing covering a disk of the given radius, plus
// the big node at the center. Jitter (a fraction of spacing, 0 to
// disable) perturbs each node deterministically from src. Triangular
// grids are the densest regular packing and give every R_t-disk a node
// when spacing ≤ R_t, which makes them ideal for exact-structure tests.
// It rejects a radius so many spacings wide that the rows and columns
// it scans span more positions than a radio.NodeID, an int32, can
// number.
func Grid(radius, spacing, jitter float64, src *rng.Source) (Deployment, error) {
	if !positiveFinite(radius) || !positiveFinite(spacing) || !(jitter >= 0) || math.IsInf(jitter, 1) {
		return Deployment{}, fmt.Errorf("field: invalid grid radius=%v spacing=%v jitter=%v", radius, spacing, jitter)
	}
	pts := []geom.Point{{}}
	rowH := spacing * math.Sqrt(3) / 2
	rows, cols := math.Floor(radius/rowH)+1, math.Floor(radius/spacing)+1
	if n := (2*rows + 1) * (2*cols + 1); n > math.MaxInt32 {
		return Deployment{}, fmt.Errorf("field: grid radius=%v spacing=%v spans %.3g positions, more than the %d node IDs", radius, spacing, n, math.MaxInt32)
	}
	maxRow, maxCol := int(rows), int(cols)
	for row := -maxRow; row <= maxRow; row++ {
		offset := 0.0
		if row%2 != 0 {
			offset = spacing / 2
		}
		for col := -maxCol; col <= maxCol; col++ {
			p := geom.Point{X: float64(col)*spacing + offset, Y: float64(row) * rowH}
			if p.X == 0 && p.Y == 0 {
				continue // big node already occupies the center
			}
			if jitter > 0 && src != nil {
				p.X += src.Range(-jitter, jitter) * spacing
				p.Y += src.Range(-jitter, jitter) * spacing
			}
			if p.Dist(geom.Point{}) <= radius {
				pts = append(pts, p)
			}
		}
	}
	return Deployment{Positions: pts}, nil
}

// WithGaps returns a copy of d with nodes inside any gap removed. The
// big node (index 0) is never removed.
func WithGaps(d Deployment, gaps []Gap) Deployment {
	out := Deployment{Positions: make([]geom.Point, 0, len(d.Positions))}
	out.Positions = append(out.Positions, d.Positions[0])
	for _, p := range d.Positions[1:] {
		if !inGap(p, gaps) {
			out.Positions = append(out.Positions, p)
		}
	}
	return out
}

// WithObstacles returns a copy of d with nodes inside any obstacle
// polygon removed. The big node (index 0) is never removed, mirroring
// WithGaps: the big node anchors the structure and experiments place
// obstacles away from it.
func WithObstacles(d Deployment, obs []Obstacle) Deployment {
	out := Deployment{Positions: make([]geom.Point, 0, len(d.Positions))}
	out.Positions = append(out.Positions, d.Positions[0])
	for _, p := range d.Positions[1:] {
		if !inObstacle(p, obs) {
			out.Positions = append(out.Positions, p)
		}
	}
	return out
}

func inObstacle(p geom.Point, obs []Obstacle) bool {
	for _, o := range obs {
		if o.Contains(p) {
			return true
		}
	}
	return false
}
