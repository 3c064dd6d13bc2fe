package field

import (
	"math"
	"strings"
	"testing"

	"gs3/internal/geom"
	"gs3/internal/rng"
)

func TestPoissonCountMatchesDensity(t *testing.T) {
	src := rng.New(1)
	const radius, lambda = 50.0, 0.01
	mean := lambda * radius * radius // 25
	var total int
	const trials = 200
	for i := 0; i < trials; i++ {
		d, err := Poisson(Config{Radius: radius, Lambda: lambda}, src)
		if err != nil {
			t.Fatal(err)
		}
		total += d.N() - 1 // exclude big node
	}
	avg := float64(total) / trials
	if math.Abs(avg-mean) > 1.5 {
		t.Errorf("average count = %v, want ≈%v", avg, mean)
	}
}

func TestPoissonBigNodeAtCenter(t *testing.T) {
	d, err := Poisson(Config{Radius: 10, Lambda: 1}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if big := d.Positions[0]; big != (geom.Point{}) {
		t.Errorf("big node at %v", big)
	}
}

func TestPoissonAllInsideRegion(t *testing.T) {
	d, err := Poisson(Config{Radius: 20, Lambda: 0.5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Positions {
		if p.Dist(geom.Point{}) > 20 {
			t.Errorf("node outside region: %v", p)
		}
	}
}

func TestPoissonErrors(t *testing.T) {
	if _, err := Poisson(Config{Radius: 0, Lambda: 1}, rng.New(1)); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := Poisson(Config{Radius: 1, Lambda: 0}, rng.New(1)); err == nil {
		t.Error("zero density accepted")
	}
	for _, c := range []Config{
		{Radius: math.NaN(), Lambda: 1},
		{Radius: math.Inf(1), Lambda: 1},
		{Radius: 1, Lambda: math.NaN()},
		{Radius: 1, Lambda: math.Inf(1)},
	} {
		if _, err := Poisson(c, rng.New(1)); err == nil {
			t.Errorf("radius %v density %v accepted", c.Radius, c.Lambda)
		}
	}
	// Means of 1e300, +Inf (λ·r² overflows) and 2.5e9: more nodes than
	// int32 IDs, rejected before any draw or allocation.
	for _, c := range []Config{
		{Radius: 1e150, Lambda: 1},
		{Radius: 1e200, Lambda: 1},
		{Radius: 5e4, Lambda: 1},
	} {
		_, err := Poisson(c, rng.New(1))
		if err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("radius %v density %v: error %v, want one naming the 2147483647 node IDs", c.Radius, c.Lambda, err)
		}
	}
}

func TestPoissonMinNodes(t *testing.T) {
	d, err := Poisson(Config{Radius: 1, Lambda: 0.001, MinNodes: 50}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() < 51 {
		t.Errorf("N = %d, want ≥ 51", d.N())
	}
}

func TestPoissonGapsRespected(t *testing.T) {
	gap := Gap{Center: geom.Point{X: 5, Y: 5}, Radius: 3}
	d, err := Poisson(Config{Radius: 20, Lambda: 2, Gaps: []Gap{gap}}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Positions[1:] {
		if p.Dist(gap.Center) < gap.Radius {
			t.Errorf("node %v inside gap", p)
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a, _ := Poisson(Config{Radius: 10, Lambda: 1}, rng.New(42))
	b, _ := Poisson(Config{Radius: 10, Lambda: 1}, rng.New(42))
	if a.N() != b.N() {
		t.Fatalf("counts differ: %d vs %d", a.N(), b.N())
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("position %d differs", i)
		}
	}
}

func TestGridDense(t *testing.T) {
	d, err := Grid(30, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() < 500 {
		t.Errorf("grid too sparse: %d nodes", d.N())
	}
	// Every disk of radius 2 centered inside the region (margin for the
	// boundary) must contain a node.
	for _, probe := range []geom.Point{{X: 10, Y: 10}, {X: -15, Y: 3}, {X: 0, Y: -20}} {
		covered := false
		for _, p := range d.Positions {
			covered = covered || p.Dist(probe) <= 2
		}
		if !covered {
			t.Errorf("unexpected gap at %v", probe)
		}
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := Grid(0, 1, 0, nil); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := Grid(1, 0, 0, nil); err == nil {
		t.Error("zero spacing accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, a := range [][3]float64{{nan, 1, 0}, {inf, 1, 0}, {1, nan, 0}, {1, inf, 0}, {1, 1, nan}, {1, 1, inf}, {1, 1, -0.1}} {
		if _, err := Grid(a[0], a[1], a[2], rng.New(1)); err == nil {
			t.Errorf("radius %v spacing %v jitter %v accepted", a[0], a[1], a[2])
		}
	}
	// Grids too wide for int32 node IDs, rejected before any loop: the
	// 1e18 one would otherwise scan ~10³⁶ positions.
	for _, a := range [][2]float64{{1e300, 1}, {1e19, 1}, {1e18, 1}, {1, 1e-300}, {3e4, 1}} {
		_, err := Grid(a[0], a[1], 0, nil)
		if err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("radius %v spacing %v: err = %v, want the int32 bound", a[0], a[1], err)
		}
	}
}

func TestGridJitterDeterministic(t *testing.T) {
	a, _ := Grid(10, 2, 0.2, rng.New(7))
	b, _ := Grid(10, 2, 0.2, rng.New(7))
	if a.N() != b.N() {
		t.Fatal("jittered grids differ in size")
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("jittered grids differ")
		}
	}
}

func TestWithGaps(t *testing.T) {
	d, _ := Grid(10, 1, 0, nil)
	gap := Gap{Center: geom.Point{X: 0, Y: 0}, Radius: 3}
	g := WithGaps(d, []Gap{gap})
	// Big node survives even inside the gap.
	if g.Positions[0] != (geom.Point{}) {
		t.Error("big node removed by gap")
	}
	for _, p := range g.Positions[1:] {
		if p.Dist(gap.Center) < gap.Radius {
			t.Errorf("node %v inside gap", p)
		}
	}
	if g.N() >= d.N() {
		t.Error("gap removed nothing")
	}
}

func TestWithObstacles(t *testing.T) {
	d, _ := Grid(10, 1, 0, nil)
	// An L-shaped obstacle covering the center, where the big node sits.
	obs := Obstacle{
		{X: -3, Y: -3}, {X: 3, Y: -3}, {X: 3, Y: 0},
		{X: 0, Y: 0}, {X: 0, Y: 3}, {X: -3, Y: 3},
	}
	o := WithObstacles(d, []Obstacle{obs})
	// Big node survives even inside the obstacle.
	if o.Positions[0] != (geom.Point{}) {
		t.Error("big node removed by obstacle")
	}
	for _, p := range o.Positions[1:] {
		if obs.Contains(p) {
			t.Errorf("node %v inside obstacle", p)
		}
	}
	if o.N() >= d.N() {
		t.Error("obstacle removed nothing")
	}
	// The notch quadrant (x,y ∈ (0,3)) is outside the L: its nodes stay.
	kept := false
	for _, p := range o.Positions[1:] {
		if p.X > 0 && p.X < 3 && p.Y > 0 && p.Y < 3 {
			kept = true
			break
		}
	}
	if !kept {
		t.Error("non-convex notch was cleared; Contains is too coarse")
	}
	// Empty obstacle list is the identity (big node included).
	id := WithObstacles(d, nil)
	if id.N() != d.N() {
		t.Errorf("nil obstacles changed size: %d vs %d", id.N(), d.N())
	}
}
