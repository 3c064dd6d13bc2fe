package hexlat

import (
	"math"
	"testing"
	"testing/quick"

	"gs3/internal/geom"
)

func TestRingDistance(t *testing.T) {
	tests := []struct {
		c    Axial
		want int
	}{
		{Axial{0, 0}, 0},
		{Axial{1, 0}, 1},
		{Axial{0, 1}, 1},
		{Axial{-1, 1}, 1},
		{Axial{1, -1}, 1},
		{Axial{2, 0}, 2},
		{Axial{1, 1}, 2},
		{Axial{-2, 1}, 2},
		{Axial{3, -5}, 5},
	}
	for _, tt := range tests {
		if got := tt.c.Ring(); got != tt.want {
			t.Errorf("Ring(%v) = %d, want %d", tt.c, got, tt.want)
		}
	}
}

func TestNeighborsAreRingOne(t *testing.T) {
	for _, n := range axialDirs {
		if n.Ring() != 1 {
			t.Errorf("neighbor %v has ring %d", n, n.Ring())
		}
	}
}

func TestNeighborDistancesEqualPitch(t *testing.T) {
	l := New(geom.Point{X: 10, Y: -5}, 7.3, 0.4)
	c := Axial{2, -1}
	center := l.Center(c)
	for _, dir := range axialDirs {
		d := center.Dist(l.Center(c.Add(dir)))
		if math.Abs(d-7.3) > 1e-9 {
			t.Errorf("neighbor distance = %v, want pitch 7.3", d)
		}
	}
}

func TestCenterOrigin(t *testing.T) {
	l := New(geom.Point{X: 1, Y: 2}, 5, 1.1)
	if got := l.Center(Axial{0, 0}); got != (geom.Point{X: 1, Y: 2}) {
		t.Errorf("Center(origin) = %v", got)
	}
}

func TestCenterGRDirection(t *testing.T) {
	gr := 0.7
	l := New(geom.Point{}, 3, gr)
	p := l.Center(Axial{1, 0})
	want := geom.Point{}.Add(geom.UnitAt(gr).Scale(3))
	if p.Dist(want) > 1e-9 {
		t.Errorf("Center((1,0)) = %v, want %v", p, want)
	}
}

func TestNearestRoundTripProperty(t *testing.T) {
	l := New(geom.Point{X: -3, Y: 4}, 11, 0.9)
	f := func(a, b int8) bool {
		c := Axial{int(a), int(b)}
		return l.Nearest(l.Center(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNearestWithJitter(t *testing.T) {
	l := New(geom.Point{}, 10, 0)
	// A point slightly off a center must still round to that center.
	for idx := (SpiralIndex{}); idx.ICC < 4; idx = NextSpiral(idx) {
		c := SpiralPoint(idx)
		p := l.Center(c).Add(geom.Vec{X: 1.2, Y: -0.8}) // well within pitch/2
		if got := l.Nearest(p); got != c {
			t.Errorf("Nearest(jittered %v) = %v", c, got)
		}
	}
}

func TestRingPointsCount(t *testing.T) {
	for k := 0; k <= 6; k++ {
		want := 6 * k
		if k == 0 {
			want = 1
		}
		if got := len(RingPoints(k)); got != want {
			t.Errorf("len(RingPoints(%d)) = %d, want %d", k, got, want)
		}
	}
}

func TestRingPointsAllOnRing(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for _, p := range RingPoints(k) {
			if p.Ring() != k {
				t.Errorf("RingPoints(%d) contains %v with ring %d", k, p, p.Ring())
			}
		}
	}
}

func TestRingPointsDistinct(t *testing.T) {
	for k := 1; k <= 5; k++ {
		seen := make(map[Axial]bool)
		for _, p := range RingPoints(k) {
			if seen[p] {
				t.Errorf("RingPoints(%d) repeats %v", k, p)
			}
			seen[p] = true
		}
	}
}

func TestRingPointsStartAtGR(t *testing.T) {
	for k := 1; k <= 4; k++ {
		if got := RingPoints(k)[0]; got != (Axial{k, 0}) {
			t.Errorf("RingPoints(%d)[0] = %v, want {%d 0}", k, got, k)
		}
	}
}

func TestRingPointsClockwise(t *testing.T) {
	// In a lattice with GR = 0, walking the ring clockwise means the
	// planar angle of successive points decreases (mod 2π).
	l := New(geom.Point{}, 1, 0)
	pts := RingPoints(3)
	prev := l.Center(pts[0]).Sub(geom.Point{}).Angle()
	for i := 1; i < len(pts); i++ {
		a := l.Center(pts[i]).Sub(geom.Point{}).Angle()
		diff := geom.NormalizeAngle(a - prev)
		if diff > 1e-9 {
			t.Fatalf("ring walk turned counter-clockwise at index %d (Δ=%v)", i, diff)
		}
		prev = a
	}
}

func TestRingWalkIsContiguous(t *testing.T) {
	for k := 1; k <= 4; k++ {
		pts := RingPoints(k)
		for i := 0; i < len(pts); i++ {
			next := pts[(i+1)%len(pts)]
			d := Axial{next.A - pts[i].A, next.B - pts[i].B}
			if d.Ring() != 1 {
				t.Errorf("ring %d: points %v→%v are not adjacent", k, pts[i], next)
			}
		}
	}
}

// TestSpiral checks the ⟨ICC, ICP⟩ walk cell shift takes: the origin,
// then the six points of ring 1, then ring 2.
func TestSpiral(t *testing.T) {
	var s []Axial
	for idx := (SpiralIndex{}); len(s) < 8; idx = NextSpiral(idx) {
		s = append(s, SpiralPoint(idx))
	}
	if s[0] != (Axial{0, 0}) {
		t.Errorf("spiral[0] = %v", s[0])
	}
	// First ring occupies indices 1..6; index 7 starts ring 2.
	for i := 1; i <= 6; i++ {
		if s[i].Ring() != 1 {
			t.Errorf("spiral[%d] = %v, ring %d", i, s[i], s[i].Ring())
		}
	}
	if s[7].Ring() != 2 {
		t.Errorf("spiral[7] ring = %d", s[7].Ring())
	}
}

// spiralIndexOf returns the ⟨ICC, ICP⟩ rank of lattice point c: the
// inverse of SpiralPoint, found by searching c's ring.
func spiralIndexOf(c Axial) SpiralIndex {
	k := c.Ring()
	for i, p := range RingPoints(k) {
		if p == c {
			return SpiralIndex{ICC: int32(k), ICP: int32(i)}
		}
	}
	return SpiralIndex{ICC: int32(k)} // not on its ring: the round trip fails
}

func TestSpiralIndexRoundTrip(t *testing.T) {
	for a := -4; a <= 4; a++ {
		for b := -4; b <= 4; b++ {
			c := Axial{a, b}
			if got := SpiralPoint(spiralIndexOf(c)); got != c {
				t.Errorf("SpiralPoint(spiralIndexOf(%v)) = %v", c, got)
			}
		}
	}
}

func TestNextSpiralCoversAll(t *testing.T) {
	idx := SpiralIndex{}
	seen := map[Axial]bool{SpiralPoint(idx): true}
	for i := 0; i < 36; i++ {
		idx = NextSpiral(idx)
		p := SpiralPoint(idx)
		if seen[p] {
			t.Fatalf("NextSpiral revisited %v", p)
		}
		seen[p] = true
	}
	// 1 + 6 + 12 + 18 = 37 points covers rings 0..3.
	if len(seen) != 37 {
		t.Errorf("covered %d points, want 37", len(seen))
	}
	if idx.ICC != 3 {
		t.Errorf("final ICC = %d, want 3", idx.ICC)
	}
}

func TestHexDistanceMatchesPlanarShells(t *testing.T) {
	// For the standard lattice, points on axial ring k lie at planar
	// distance between k·pitch·(√3/2) and k·pitch.
	l := New(geom.Point{}, 1, 0)
	for k := 1; k <= 4; k++ {
		for _, p := range RingPoints(k) {
			d := l.Center(p).Dist(geom.Point{})
			lo := float64(k) * math.Sqrt(3) / 2
			hi := float64(k)
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Errorf("ring %d point %v at planar distance %v outside [%v,%v]", k, p, d, lo, hi)
			}
		}
	}
}

// TestNearestMatchesPerCallBasis pins Nearest's precomputed basis to
// the per-call trigonometry it replaced, bit for bit: the lattice
// rounding decides routing, so any drift would move the goldens.
func TestNearestMatchesPerCallBasis(t *testing.T) {
	perCall := func(l Lattice, p geom.Point) Axial {
		v := p.Sub(l.Origin)
		c1, s1 := math.Cos(l.GR), math.Sin(l.GR)
		c2, s2 := math.Cos(l.GR+math.Pi/3), math.Sin(l.GR+math.Pi/3)
		det := (c1*s2 - c2*s1) * l.Pitch
		return roundAxial((s2*v.X-c2*v.Y)/det, (-s1*v.X+c1*v.Y)/det)
	}
	f := func(ox, oy, px, py, pitch, gr float64) bool {
		pitch = 1 + math.Abs(math.Mod(pitch, 200))
		l := New(geom.Point{X: math.Mod(ox, 1e4), Y: math.Mod(oy, 1e4)}, pitch, math.Mod(gr, 2*math.Pi))
		p := geom.Point{X: math.Mod(px, 1e4), Y: math.Mod(py, 1e4)}
		return l.Nearest(p) == perCall(l, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
