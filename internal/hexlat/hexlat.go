// Package hexlat implements the ideal hexagonal lattice geometry of GS³.
//
// The lattice of Ideal Locations (ILs) is the set of hexagon centers of
// the cellular hexagonal structure (paper Figure 1): neighboring centers
// are √3·R apart, so each cell is a hexagon of circumradius R. The
// lattice is anchored at an origin (the big node's IL) and oriented by
// the Global Reference direction GR that the diffusing computation
// carries across the network.
//
// The same lattice, scaled down to pitch √3·R_t, orders the candidate
// ILs inside a single cell for cell shift: each ring around the original
// IL is an Intra-Cell Cycle (ICC) and positions on a ring are numbered
// clockwise from GR (Intra-Cycle Position, ICP) — paper Figure 5.
package hexlat

import (
	"math"

	"gs3/internal/geom"
)

// Axial is a lattice coordinate. The lattice point (A, B) lies at
// Origin + Pitch·(A·e₁ + B·e₂) where e₁ points along GR and e₂ along
// GR + 60°.
type Axial struct {
	A, B int
}

// axialDirs are the six neighbor offsets in counter-clockwise order
// starting from the GR direction (0°, 60°, …, 300°).
var axialDirs = [6]Axial{
	{1, 0}, {0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1},
}

// Add returns c translated by d.
func (c Axial) Add(d Axial) Axial {
	return Axial{c.A + d.A, c.B + d.B}
}

// Scale returns c with both coordinates multiplied by k.
func (c Axial) Scale(k int) Axial {
	return Axial{c.A * k, c.B * k}
}

// Ring returns the hex-distance of c from the lattice origin. Ring 0 is
// the origin itself; ring d corresponds to the paper's d-band (for the
// cell lattice) or ICC = d (for the intra-cell lattice).
func (c Axial) Ring() int {
	return (abs(c.A) + abs(c.B) + abs(c.A+c.B)) / 2
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Lattice is a hexagonal lattice embedded in the plane. Build it with
// New: Pitch and GR are fixed there, because Nearest uses a basis New
// derives from them. Origin may be moved freely.
type Lattice struct {
	Origin geom.Point // lattice point (0,0)
	Pitch  float64    // distance between neighboring lattice points
	GR     float64    // orientation of the e₁ axis, radians

	// e₁ = (c1, s1) and e₂ = (c2, s2), and det = (c1·s2 − c2·s1)·Pitch:
	// the inverse basis Nearest needs, computed once.
	c1, s1, c2, s2, det float64
}

// New returns the lattice anchored at origin with the given pitch and
// global-reference orientation.
func New(origin geom.Point, pitch, gr float64) Lattice {
	c1, s1 := math.Cos(gr), math.Sin(gr)
	c2, s2 := math.Cos(gr+math.Pi/3), math.Sin(gr+math.Pi/3)
	return Lattice{
		Origin: origin, Pitch: pitch, GR: gr,
		c1: c1, s1: s1, c2: c2, s2: s2,
		det: (c1*s2 - c2*s1) * pitch,
	}
}

// Center returns the planar location of lattice point c.
func (l Lattice) Center(c Axial) geom.Point {
	e1 := geom.UnitAt(l.GR)
	e2 := geom.UnitAt(l.GR + math.Pi/3)
	v := e1.Scale(float64(c.A) * l.Pitch).Add(e2.Scale(float64(c.B) * l.Pitch))
	return l.Origin.Add(v)
}

// Nearest returns the lattice point closest to p.
func (l Lattice) Nearest(p geom.Point) Axial {
	// Invert p = Origin + Pitch·(a·e₁ + b·e₂). With e₁ = (c₁,s₁) and
	// e₂ = (c₂,s₂), the determinant c₁s₂ − c₂s₁ = sin 60° exactly.
	v := p.Sub(l.Origin)
	a := (l.s2*v.X - l.c2*v.Y) / l.det
	b := (-l.s1*v.X + l.c1*v.Y) / l.det
	return roundAxial(a, b)
}

// roundAxial rounds fractional axial coordinates to the nearest lattice
// point using cube rounding (x = a, z = b, y = −a−b; re-derive the
// coordinate with the largest rounding error from the other two).
func roundAxial(a, b float64) Axial {
	x, z := a, b
	y := -a - b
	rx, ry, rz := math.Round(x), math.Round(y), math.Round(z)
	dx, dy, dz := math.Abs(rx-x), math.Abs(ry-y), math.Abs(rz-z)
	switch {
	case dx > dy && dx > dz:
		rx = -ry - rz
	case dy > dz:
		// y is re-derived implicitly; nothing to fix in (a, b).
	default:
		rz = -rx - ry
	}
	return Axial{int(rx), int(rz)}
}

// RingPoints returns the lattice points of ring k in clockwise order
// starting from the point in the GR direction. Ring 0 is the single
// origin point; ring k has 6k points. This is the paper's ⟨ICC, ICP⟩
// ordering: the i-th returned point of ring k has ICC = k, ICP = i.
func RingPoints(k int) []Axial {
	if k == 0 {
		return []Axial{{0, 0}}
	}
	out := make([]Axial, 0, 6*k)
	// Clockwise corner order: direction indices 0, 5, 4, 3, 2, 1. From
	// the corner at direction index j, the edge toward the next
	// clockwise corner runs along direction index (j+4) mod 6.
	corners := [6]int{0, 5, 4, 3, 2, 1}
	pos := axialDirs[0].Scale(k)
	for _, j := range corners {
		step := axialDirs[(j+4)%6]
		for s := 0; s < k; s++ {
			out = append(out, pos)
			pos = pos.Add(step)
		}
	}
	return out
}

// SpiralIndex identifies a lattice point by its ⟨ICC, ICP⟩ rank: ring
// number and clockwise position within the ring.
type SpiralIndex struct {
	ICC int32 // ring (Intra-Cell Cycle)
	ICP int32 // clockwise position on the ring (Intra-Cycle Position)
}

// SpiralPoint returns the lattice point at the given spiral index.
func SpiralPoint(idx SpiralIndex) Axial {
	return RingPoints(int(idx.ICC))[idx.ICP]
}

// NextSpiral returns the spiral index that follows idx in ⟨ICC, ICP⟩
// order: the next position on the same ring, or position 0 of the next
// ring.
func NextSpiral(idx SpiralIndex) SpiralIndex {
	if idx.ICC == 0 {
		return SpiralIndex{ICC: 1, ICP: 0}
	}
	if idx.ICP+1 < 6*idx.ICC {
		return SpiralIndex{ICC: idx.ICC, ICP: idx.ICP + 1}
	}
	return SpiralIndex{ICC: idx.ICC + 1, ICP: 0}
}
