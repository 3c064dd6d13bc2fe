package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if !approx(s.Stddev, math.Sqrt(2.5), 1e-12) {
		t.Errorf("stddev = %v", s.Stddev)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %v", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.Stddev != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {-5, 10}, {105, 40},
		{50, 25}, {25, 17.5}, {75, 32.5},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); !approx(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if got := Percentile([]float64{1, 2, 3}, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %v, want NaN", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
}

func TestLinearFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 1e-12) || !approx(fit.Intercept, 3, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !approx(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{0.1, 0.9, 2.2, 2.8, 4.1, 5.0}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 0.8 || fit.Slope > 1.2 {
		t.Errorf("slope = %v", fit.Slope)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x accepted")
	}
}

func TestLinearFitConstantY(t *testing.T) {
	fit, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("fit = %+v", fit)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}
