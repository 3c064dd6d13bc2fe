package analysis

import (
	"math"
	"testing"
)

func TestAlpha(t *testing.T) {
	tests := []struct {
		lambda, rt float64
		want       float64
	}{
		{10, 0, 1},
		{10, 1, math.Exp(-10)},
		{0, 5, 1},
		{10, 2, math.Exp(-40)},
	}
	for _, tt := range tests {
		if got := Alpha(tt.lambda, tt.rt); math.Abs(got-tt.want) > 1e-15 {
			t.Errorf("Alpha(%v,%v) = %v, want %v", tt.lambda, tt.rt, got, tt.want)
		}
	}
}

func TestAlphaMonotonicInRt(t *testing.T) {
	prev := 2.0
	for rt := 0.0; rt <= 3; rt += 0.1 {
		a := Alpha(10, rt)
		if a > prev {
			t.Fatalf("alpha increased at rt=%v", rt)
		}
		prev = a
	}
}

func TestPaperFigure7Claim(t *testing.T) {
	// Paper: with λ=10, R=100, both curves are ≈0 once R_t/R ≥ 0.02,
	// i.e. R_t ≥ 2.
	ratio := NonIdealCellRatio(10, 0.02*100)
	if ratio > 1e-15 {
		t.Errorf("non-ideal ratio at Rt/R=0.02 is %v, want ≈0", ratio)
	}
	// And clearly nonzero at very small R_t.
	if r := NonIdealCellRatio(10, 0.001*100); r < 0.9 {
		t.Errorf("ratio at Rt/R=0.001 = %v, want near 1", r)
	}
}

func TestPaperFigure8Claim(t *testing.T) {
	d := GapRegionDiameter(10, 0.02*100, 100)
	if d > 1e-10 {
		t.Errorf("gap region diameter at Rt/R=0.02 is %v, want ≈0", d)
	}
	// Diverges as R_t→0.
	if d := GapRegionDiameter(10, 0, 100); !math.IsInf(d, 1) {
		t.Errorf("diameter at rt=0 = %v, want +Inf", d)
	}
}

func TestGapRegionDiameterFormula(t *testing.T) {
	// Hand check: α = 0.5 ⇒ diameter = 2R·0.5/0.25 = 4R.
	lambda := math.Ln2 // e^{-λ·1²} = 0.5 at rt = 1
	got := GapRegionDiameter(lambda, 1, 100)
	if math.Abs(got-400) > 1e-9 {
		t.Errorf("diameter = %v, want 400", got)
	}
}

// TestFigure7CurveDecreasing checks the analytic series exp.Figure7
// tabulates over the paper's R_t/R grid: it falls monotonically to ≈0.
func TestFigure7CurveDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for _, q := range DefaultRatios() {
		v := NonIdealCellRatio(10, q*100)
		if v > prev {
			t.Fatalf("Figure 7 curve not decreasing at %v", q)
		}
		prev = v
	}
	if prev > 1e-10 {
		t.Errorf("tail value = %v", prev)
	}
}

// TestFigure8CurveDecreasing is the same check for exp.Figure8's
// analytic series, the expected R_t-gap region diameter.
func TestFigure8CurveDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for _, q := range DefaultRatios() {
		v := GapRegionDiameter(10, q*100, 100)
		if v > prev {
			t.Fatalf("Figure 8 curve not decreasing at %v", q)
		}
		prev = v
	}
}

func TestDefaultRatiosRange(t *testing.T) {
	rs := DefaultRatios()
	if len(rs) < 30 {
		t.Fatalf("only %d ratios", len(rs))
	}
	if rs[0] > 0.0011 || rs[len(rs)-1] < 0.035 {
		t.Errorf("ratio range [%v, %v]", rs[0], rs[len(rs)-1])
	}
}
