// Package geom provides the 2-D planar geometry used throughout GS³:
// points, vectors, signed angles, sectors, and distance predicates.
//
// All angles are in radians. Signed angles follow the paper's convention
// for the ranking tuple ⟨d, |A|, A⟩: the angle A between a reference
// direction and a target direction is negative when the target lies
// clockwise of the reference and positive when counter-clockwise, with
// A ∈ (−π, π].
package geom

import "math"

// Point is a location on the 2-D plane.
type Point struct {
	X, Y float64
}

// Vec is a displacement on the 2-D plane.
type Vec struct {
	X, Y float64
}

// Sub returns the vector from q to p (p − q).
func (p Point) Sub(q Point) Vec {
	return Vec{p.X - q.X, p.Y - q.Y}
}

// Add returns the point p translated by v.
func (p Point) Add(v Vec) Point {
	return Point{p.X + v.X, p.Y + v.Y}
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q.
// It avoids the square root for comparison-only uses.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Midpoint returns the midpoint of segment pq.
func (p Point) Midpoint(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec {
	return Vec{v.X * k, v.Y * k}
}

// Add returns the vector sum v + w.
func (v Vec) Add(w Vec) Vec {
	return Vec{v.X + w.X, v.Y + w.Y}
}

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 {
	return math.Hypot(v.X, v.Y)
}

// Angle returns the direction of v in radians, in (−π, π].
// The zero vector has angle 0.
func (v Vec) Angle() float64 {
	if v.X == 0 && v.Y == 0 {
		return 0
	}
	return math.Atan2(v.Y, v.X)
}

// Cross returns the z-component of the 3-D cross product v×w.
// It is positive when w lies counter-clockwise of v.
func (v Vec) Cross(w Vec) float64 {
	return v.X*w.Y - v.Y*w.X
}

// UnitAt returns the unit vector pointing in direction theta.
func UnitAt(theta float64) Vec {
	s, c := math.Sincos(theta)
	return Vec{c, s}
}

// NormalizeAngle maps theta into (−π, π].
func NormalizeAngle(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t <= -math.Pi {
		t += 2 * math.Pi
	} else if t > math.Pi {
		t -= 2 * math.Pi
	}
	return t
}

// SignedAngle returns the signed angle A from direction ref to direction
// dir, in (−π, π]. A is positive when dir lies counter-clockwise of ref
// (the paper's convention for the ranking tuple).
func SignedAngle(ref, dir Vec) float64 {
	return NormalizeAngle(dir.Angle() - ref.Angle())
}

// Sector is an angular region around an apex, measured relative to a
// reference direction: all directions whose signed angle from Ref lies
// in [Lo, Hi]. Lo and Hi are in radians; Lo ≤ Hi. A full circle is
// Lo = −π, Hi = π (or any span ≥ 2π).
type Sector struct {
	Apex   Point
	Ref    Vec
	Lo, Hi float64
	Radius float64
}

// Contains reports whether p lies inside the sector (within Radius of
// the apex and within the angular span).
func (s Sector) Contains(p Point) bool {
	v := p.Sub(s.Apex)
	if v.Len() > s.Radius {
		return false
	}
	if s.Hi-s.Lo >= 2*math.Pi {
		return true
	}
	if v.X == 0 && v.Y == 0 {
		return true
	}
	a := SignedAngle(s.Ref, v)
	// The span may straddle the ±π wrap once normalized; test both the
	// direct value and its 2π translates.
	return (a >= s.Lo && a <= s.Hi) ||
		(a+2*math.Pi >= s.Lo && a+2*math.Pi <= s.Hi) ||
		(a-2*math.Pi >= s.Lo && a-2*math.Pi <= s.Hi)
}
