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

// Finite reports whether both coordinates of p are finite: neither NaN
// nor infinite.
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q.
// It avoids the square root for comparison-only uses. Each square is
// rounded before the sum, which the explicit conversions make the Go
// spec require: no architecture may fuse them into a multiply-add, so
// the range predicates that compare Dist2 decide alike everywhere.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Within reports whether p.Dist(q) <= r, with the same result bit for
// bit, deciding from squared distances wherever they can (see cmpSq)
// and calling Hypot only where they cannot.
func (p Point) Within(q Point, r float64) bool {
	if c := cmpSq(p.Dist2(q), radiusSq(r)); c != 0 {
		return c < 0
	}
	return p.Dist(q) <= r
}

// SurelyFarther reports whether the distance whose square is d2 is
// strictly greater, as Dist computes both, than the one whose square is
// ref2, deciding from the squares alone: it is cmpSq(d2, ref2) > 0.
// Both squares must be computed as Dist2 computes them. A false answer
// decides nothing: within the band of ref2, only Hypot can order the
// two.
func SurelyFarther(d2, ref2 float64) bool {
	return normal(d2) && normal(ref2) && d2 > ref2*(1+band)
}

// band is the relative width of the band around a square inside which a
// squared distance cannot stand in for Hypot. Dist2 (or a product r·r)
// and Hypot each stay within 5 ulps (~1.1e-15) of the exact square or
// distance, so two squares farther apart than the band order their
// Hypot distances the same way: the band is wider than their combined
// error by five orders of magnitude.
const band = 1e-9

// cmpSq compares two distances, a and b, from their squares a2 and b2,
// each computed as Dist2 computes it or as the product b·b: −1 when a is
// surely below b by Hypot, +1 when surely above, and 0 when only Hypot
// can tell. It answers 0 for a2 within the band of b2, and whenever a2
// or b2 is not a normal finite number — NaN, ±Inf, an overflowing or a
// subnormal square, whose rounding error the band does not bound.
func cmpSq(a2, b2 float64) int {
	if !normal(a2) || !normal(b2) {
		return 0
	}
	switch {
	case a2 < b2*(1-band):
		return -1
	case a2 > b2*(1+band):
		return 1
	}
	return 0
}

// radiusSq returns r·r as cmpSq's second square, or NaN, on which cmpSq
// decides nothing, when r is not positive: a negative r has a positive
// square, yet no distance is at most r.
func radiusSq(r float64) float64 {
	if r > 0 {
		return r * r
	}
	return math.NaN()
}

// normal reports whether x is a positive, normal, finite float64.
func normal(x float64) bool {
	return x >= 0x1p-1022 && x <= math.MaxFloat64
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
// reference direction: the points within radius of the apex whose
// direction's signed angle from the reference angle ref lies in
// [lo, hi] (radians, lo ≤ hi; a span of 2π or more is the full disk).
// Build one with NewSector.
type Sector struct {
	apex    Point
	ref     float64
	lo, hi  float64
	radius  float64
	radius2 float64 // radiusSq(radius)

	// Edge data NewSector precomputes, so that Contains decides most
	// directions with a dot product and takes the signed angle only near an
	// edge. full: the span covers every direction. When fast is set,
	// mid is the unit bisector of the span and cosIn, cosOut bound the
	// cosine of the half-span from above and below by the band: a
	// direction whose cosine to mid exceeds cosIn is surely inside, and
	// one below cosOut surely outside.
	full, fast    bool
	mid           Vec
	cosIn, cosOut float64
}

// NewSector returns the sector of directions whose signed angle from the
// direction at angle ref lies in [lo, hi], out to radius around apex.
//
// Contains matches the translate test of the signed angle against [lo, hi]
// bit for bit. Away from an edge that test is exact geometry: the angle
// it computes is within ~1e-14 rad of the true one, and for
// −2π ≤ lo ≤ hi ≤ 2π its three translates of the angle cover every
// representative in [lo, hi]. So outside the band around the edges,
// the cosine of the angle to the bisector decides the same way. Other
// spans, and a ref that is not finite, take the signed angle for every
// direction.
func NewSector(apex Point, ref, lo, hi, radius float64) Sector {
	s := Sector{apex: apex, ref: ref, lo: lo, hi: hi, radius: radius, radius2: radiusSq(radius), full: hi-lo >= 2*math.Pi}
	if !s.full && -2*math.Pi <= lo && lo <= hi && hi <= 2*math.Pi && !math.IsNaN(ref) && !math.IsInf(ref, 0) {
		half := math.Cos((hi - lo) / 2)
		s.fast, s.mid = true, UnitAt(ref+(lo+hi)/2)
		s.cosIn, s.cosOut = half+band, half-band
	}
	return s
}

// Contains reports whether p lies inside the sector (within radius of
// the apex and within the angular span).
func (s *Sector) Contains(p Point) bool {
	v := p.Sub(s.apex)
	d2 := p.Dist2(s.apex)
	if c := cmpSq(d2, s.radius2); c > 0 || c == 0 && v.Len() > s.radius {
		return false
	}
	if s.full || v.X == 0 && v.Y == 0 {
		return true
	}
	if s.fast && normal(d2) {
		// |v|·cos of the angle between v and the bisector.
		c, n := s.mid.X*v.X+s.mid.Y*v.Y, math.Sqrt(d2)
		if c > s.cosIn*n {
			return true
		}
		if c < s.cosOut*n {
			return false
		}
	}
	a := NormalizeAngle(v.Angle() - s.ref)
	// The span may straddle the ±π wrap once normalized; test both the
	// direct value and its 2π translates.
	return (a >= s.lo && a <= s.hi) ||
		(a+2*math.Pi >= s.lo && a+2*math.Pi <= s.hi) ||
		(a-2*math.Pi >= s.lo && a-2*math.Pi <= s.hi)
}
