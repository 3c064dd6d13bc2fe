package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

// clamp maps arbitrary quick-generated floats into a finite range where
// float64 arithmetic is exact enough for the property under test.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEq(got, tt.want) {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almostEq(got, tt.want*tt.want) {
				t.Errorf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{clamp(ax), clamp(ay)}, Point{clamp(bx), clamp(by)}
		return almostEq(p.Dist(q), q.Dist(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubAddRoundTrip(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{clamp(ax), clamp(ay)}, Point{clamp(bx), clamp(by)}
		r := q.Add(p.Sub(q))
		return almostEq(r.X, p.X) && almostEq(r.Y, p.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMidpoint(t *testing.T) {
	m := Point{0, 0}.Midpoint(Point{4, 6})
	if m != (Point{2, 3}) {
		t.Errorf("Midpoint = %v, want {2 3}", m)
	}
}

func TestVecAngle(t *testing.T) {
	tests := []struct {
		v    Vec
		want float64
	}{
		{Vec{1, 0}, 0},
		{Vec{0, 1}, math.Pi / 2},
		{Vec{-1, 0}, math.Pi},
		{Vec{0, -1}, -math.Pi / 2},
		{Vec{1, 1}, math.Pi / 4},
		{Vec{0, 0}, 0},
	}
	for _, tt := range tests {
		if got := tt.v.Angle(); !almostEq(got, tt.want) {
			t.Errorf("Angle(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestUnitAt(t *testing.T) {
	for _, theta := range []float64{0, 1, -1, math.Pi, -math.Pi / 3, 2.7} {
		v := UnitAt(theta)
		if !almostEq(v.Len(), 1) {
			t.Errorf("UnitAt(%v) length = %v", theta, v.Len())
		}
		if !almostEq(NormalizeAngle(v.Angle()-theta), 0) {
			t.Errorf("UnitAt(%v) angle = %v", theta, v.Angle())
		}
	}
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi}, // −π maps to π: range is (−π, π]
		{2 * math.Pi, 0},
		{3 * math.Pi, math.Pi},
		{-3 * math.Pi / 2, math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); !almostEq(got, tt.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestNormalizeAngleRangeProperty(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		theta = math.Mod(theta, 1e4)
		n := NormalizeAngle(theta)
		return n > -math.Pi-eps && n <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedAngle(t *testing.T) {
	tests := []struct {
		name     string
		ref, dir Vec
		want     float64
	}{
		{"same direction", Vec{1, 0}, Vec{2, 0}, 0},
		{"ccw quarter", Vec{1, 0}, Vec{0, 1}, math.Pi / 2},
		{"cw quarter", Vec{1, 0}, Vec{0, -1}, -math.Pi / 2},
		{"opposite", Vec{1, 0}, Vec{-1, 0}, math.Pi},
		{"ccw from diagonal", Vec{1, 1}, Vec{-1, 1}, math.Pi / 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SignedAngle(tt.ref, tt.dir); !almostEq(got, tt.want) {
				t.Errorf("SignedAngle = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCrossSignMatchesSignedAngle(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		v := Vec{float64(ax), float64(ay)}
		w := Vec{float64(bx), float64(by)}
		if v.Len() == 0 || w.Len() == 0 {
			return true
		}
		a := SignedAngle(v, w)
		c := v.Cross(w)
		if almostEq(a, math.Pi) || almostEq(a, 0) {
			return true // collinear: cross ≈ 0
		}
		return (a > 0) == (c > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSectorContains(t *testing.T) {
	// 120° forward sector looking along +x, radius 10.
	s := NewSector(Point{0, 0}, 0, -math.Pi/3, math.Pi/3, 10)
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"straight ahead", Point{5, 0}, true},
		{"edge of radius", Point{10, 0}, true},
		{"beyond radius", Point{10.01, 0}, false},
		{"upper edge inside", Point{1, 1.7}, true},
		{"behind", Point{-5, 0}, false},
		{"above 60 degrees", Point{1, 2}, false},
		{"apex itself", Point{0, 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestSectorFullCircle(t *testing.T) {
	s := NewSector(Point{0, 0}, 0, -math.Pi, math.Pi, 5)
	for _, theta := range []float64{0, 1, 2, 3, -1, -2, -3, math.Pi} {
		p := Point{}.Add(UnitAt(theta).Scale(4))
		if !s.Contains(p) {
			t.Errorf("full-circle sector should contain %v", p)
		}
	}
}

func TestSectorWrapAround(t *testing.T) {
	// Sector looking along −x with span ±60°: directions near ±π.
	s := NewSector(Point{0, 0}, Vec{-1, 0}.Angle(), -math.Pi/3, math.Pi/3, 10)
	if !s.Contains(Point{-5, 0}) {
		t.Error("should contain point straight behind the origin direction")
	}
	if !s.Contains(Point{-5, 2}) || !s.Contains(Point{-5, -2}) {
		t.Error("should contain points slightly off the −x axis")
	}
	if s.Contains(Point{5, 0}) {
		t.Error("should not contain point opposite the sector")
	}
}

func TestCross(t *testing.T) {
	v, w := Vec{1, 2}, Vec{3, 4}
	if got := v.Cross(w); got != -2 {
		t.Errorf("Cross = %v, want -2", got)
	}
}

func TestVecScaleAdd(t *testing.T) {
	v := Vec{1, -2}.Scale(3).Add(Vec{0.5, 0.5})
	if !almostEq(v.X, 3.5) || !almostEq(v.Y, -5.5) {
		t.Errorf("Scale/Add = %v", v)
	}
}
