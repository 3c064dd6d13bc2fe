package geom

import (
	"math"
	"testing"
)

// withinRef is the distance test Within replaces: Hypot against r.
func withinRef(p, q Point, r float64) bool {
	return p.Dist(q) <= r
}

// containsRef is the sector test Contains replaces: Hypot against the
// radius, then SignedAngle and its 2π translates against [lo, hi] for
// every direction.
func containsRef(apex Point, ref Vec, lo, hi, radius float64, p Point) bool {
	v := p.Sub(apex)
	if v.Len() > radius {
		return false
	}
	if hi-lo >= 2*math.Pi {
		return true
	}
	if v.X == 0 && v.Y == 0 {
		return true
	}
	a := SignedAngle(ref, v)
	return (a >= lo && a <= hi) ||
		(a+2*math.Pi >= lo && a+2*math.Pi <= hi) ||
		(a-2*math.Pi >= lo && a-2*math.Pi <= hi)
}

// checkBand asserts, for one decoded input, that the band-based tests
// decide exactly as the formulas they replace: Within as Hypot against
// r; NewSector(q, ref.Angle(), lo, hi, r).Contains as containsRef; and
// SurelyFarther, on p's squared distances to q and to the point o at
// ref's coordinates, only when Hypot orders them strictly that way.
func checkBand(t *testing.T, px, py, qx, qy, r, rx, ry, lo, hi float64) {
	t.Helper()
	p, q, o, ref := Point{px, py}, Point{qx, qy}, Point{rx, ry}, Vec{rx, ry}
	if got, want := p.Within(q, r), withinRef(p, q, r); got != want {
		t.Errorf("%v.Within(%v, %v) = %v, Hypot says %v", p, q, r, got, want)
	}
	s := NewSector(q, ref.Angle(), lo, hi, r)
	if got, want := s.Contains(p), containsRef(q, ref, lo, hi, r, p); got != want {
		t.Errorf("NewSector(%v, %v, %v, %v, %v).Contains(%v) = %v, reference says %v", q, ref, lo, hi, r, p, got, want)
	}
	dq, do := p.Dist2(q), p.Dist2(o)
	if SurelyFarther(dq, do) && !(p.Dist(q) > p.Dist(o)) {
		t.Errorf("SurelyFarther(|%v-%v|², |%v-%v|²) but Hypot gives %v, %v", p, q, p, o, p.Dist(q), p.Dist(o))
	}
	if SurelyFarther(do, dq) && !(p.Dist(o) > p.Dist(q)) {
		t.Errorf("SurelyFarther(|%v-%v|², |%v-%v|²) but Hypot gives %v, %v", p, o, p, q, p.Dist(o), p.Dist(q))
	}
}

// FuzzBandMatchesHypot decodes raw float64 coordinates, a radius, a
// reference direction and sector edges, and checks that Within,
// Sector.Contains and SurelyFarther agree with the Hypot and
// SignedAngle formulas on every input (see checkBand). The seed corpus
// holds points 1–4 ulps either side of the circle and of both sector
// edges, points either side of the band's own edge, exact ties, NaN,
// ±Inf, 1e±300 and subnormal offsets.
func FuzzBandMatchesHypot(f *testing.F) {
	f.Add(3.0, 4.0, 0.0, 0.0, 5.0, 1.0, 0.0, -math.Pi/3, math.Pi/3)
	f.Fuzz(checkBand)
}

// TestBandNearEdges sweeps points across the circle and both edges of
// production-shaped sectors at offsets from a few ulps out to well past
// the band, where the squared-distance and dot-product tests decide.
func TestBandNearEdges(t *testing.T) {
	alpha := math.Asin(25 / (100 * math.Sqrt(3)))
	lo, hi := -math.Pi/3-alpha, math.Pi/3+alpha
	const r = 200.0
	nudges := []float64{0, 1e-16, 1e-15, 1e-12, 4e-10, 6e-10, 1e-9, 2e-9, 1e-6, 1e-3}
	for _, apex := range []Point{{}, {X: 173.2, Y: -1e4}} {
		for _, base := range []float64{0, 1, math.Pi / 2, 3, -3, math.Pi} {
			ref := UnitAt(base)
			for _, edge := range []float64{0, lo, hi} {
				dir := UnitAt(base + edge)
				for _, k := range nudges {
					for _, sign := range []float64{-1, 1} {
						// Radially across the circle, and around the edge.
						p := apex.Add(dir.Scale(r * (1 + sign*k)))
						checkBand(t, p.X, p.Y, apex.X, apex.Y, r, ref.X, ref.Y, lo, hi)
						p = apex.Add(UnitAt(base + edge + sign*k).Scale(r / 2))
						checkBand(t, p.X, p.Y, apex.X, apex.Y, r, ref.X, ref.Y, lo, hi)
					}
				}
			}
		}
	}
}
