package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered %d values, want 10", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestRangeBounds(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range(-3,7) = %v", v)
		}
	}
}

func TestPoissonSmallMean(t *testing.T) {
	s := New(13)
	const n = 100000
	lambda := 4.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		k := float64(s.Poisson(lambda))
		sum += k
		sumSq += k * k
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-lambda) > 0.1 {
		t.Errorf("Poisson(4) mean = %v", mean)
	}
	if math.Abs(variance-lambda) > 0.2 {
		t.Errorf("Poisson(4) variance = %v, want ≈4", variance)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	s := New(17)
	const n = 50000
	lambda := 200.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(s.Poisson(lambda))
	}
	mean := sum / n
	if math.Abs(mean-lambda) > 1.0 {
		t.Errorf("Poisson(200) mean = %v", mean)
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	s := New(19)
	for i := 0; i < 100; i++ {
		if k := s.Poisson(0); k != 0 {
			t.Fatalf("Poisson(0) = %d", k)
		}
	}
}

// TestPoissonHugeMean: a mean too large for an int saturates at
// math.MaxInt instead of wrapping, and a NaN mean gives 0.
func TestPoissonHugeMean(t *testing.T) {
	s := New(23)
	for _, c := range []struct {
		lambda float64
		want   int
	}{
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{1e19, math.MaxInt},
		{1e300, math.MaxInt},
		{math.Inf(1), math.MaxInt},
	} {
		if k := s.Poisson(c.lambda); k != c.want {
			t.Errorf("Poisson(%v) = %d, want %d", c.lambda, k, c.want)
		}
	}
	if k := s.Poisson(1e9); k < 999_000_000 || k > 1_001_000_000 {
		t.Errorf("Poisson(1e9) = %d, want 1e9 ± 1e6", k)
	}
}

func TestExpMean(t *testing.T) {
	s := New(23)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(5)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("Exp(5) mean = %v", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(29)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v", variance)
	}
}

func TestInDisk(t *testing.T) {
	s := New(31)
	const n = 50000
	inside := 0
	for i := 0; i < n; i++ {
		x, y := s.InDisk(10)
		r := math.Hypot(x, y)
		if r > 10 {
			t.Fatalf("InDisk point outside radius: %v", r)
		}
		if r <= 10/math.Sqrt2 {
			inside++
		}
	}
	// Uniform in area: P(r ≤ R/√2) = 1/2.
	frac := float64(inside) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("disk uniformity: inner-half fraction = %v, want ≈0.5", frac)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(99)
	f := a.Fork()
	// The fork must not replay the parent's stream.
	if a.Uint64() == f.Uint64() {
		t.Error("fork replays parent stream")
	}
	// Forking is deterministic given the parent state.
	x := New(99).Fork().Uint64()
	y := New(99).Fork().Uint64()
	if x != y {
		t.Error("fork not deterministic")
	}
}
