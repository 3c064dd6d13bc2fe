// Package stats provides the small statistics toolkit the experiment
// harness uses: summary statistics, histograms, and least-squares linear
// fits (for checking the paper's O(·)/θ(·) scaling claims empirically).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes summary statistics of xs. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	s.P99 = Percentile(sorted, 99)
	return s
}

// Percentile returns the p-th percentile (0–100) of sorted, using linear
// interpolation between closest ranks. sorted must be in ascending
// order; an empty slice yields 0, and a NaN p NaN.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Fit is a least-squares line y = Slope·x + Intercept with its
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits a least-squares line to (xs[i], ys[i]). It requires
// len(xs) == len(ys) ≥ 2 and non-constant xs; otherwise it returns an
// error. The R² value reports how well a straight line explains the
// data, which is how the scaling experiments check claims like
// "convergence time is θ(D_b)".
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, have %d", len(xs))
	}
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: constant x values")
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1 // perfectly constant y is perfectly explained
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	_ = n
	return fit, nil
}

// String renders the summary as one compact line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Stddev, s.Min, s.P50, s.P90, s.P99, s.Max)
}
