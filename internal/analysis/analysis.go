// Package analysis implements the closed-form results of the paper's
// §4.3.4 ("Statistically low deviation from ideal hexagonal structure"),
// which produce Figures 7 and 8.
//
// Under the paper's convention, node density λ is the mean node count in
// a disk of radius 1, and the count in a disk of radius r is Poisson
// with mean λ·r². From this:
//
//   - α(λ, R_t) = e^{−λ·R_t²} is the probability an R_t-disk is empty
//     (an R_t-gap).
//   - The expected ratio of non-ideal cells is α (Figure 7).
//   - The expected diameter of an R_t-gap perturbed region is
//     2R·α/(1−α)² (Figure 8).
package analysis

import "math"

// Alpha returns the probability that a disk of radius rt contains no
// node at density lambda: e^{−λ·rt²}.
func Alpha(lambda, rt float64) float64 {
	return math.Exp(-lambda * rt * rt)
}

// NonIdealCellRatio returns the expected fraction of cells in the ideal
// virtual structure whose IL falls in an R_t-gap (paper Figure 7). The
// paper shows E[G_e]/n = α by the binomial expectation.
func NonIdealCellRatio(lambda, rt float64) float64 {
	return Alpha(lambda, rt)
}

// GapRegionDiameter returns the expected diameter of an R_t-gap
// perturbed region (paper Figure 8): 2R·Σ k·α^k = 2R·α/(1−α)².
// It returns +Inf when α = 1 (zero density or zero tolerance).
func GapRegionDiameter(lambda, rt, r float64) float64 {
	a := Alpha(lambda, rt)
	if a >= 1 {
		return math.Inf(1)
	}
	return 2 * r * a / ((1 - a) * (1 - a))
}

// DefaultRatios returns the R_t/R sampling grid used in the paper's
// figures, which plot the range where the curves fall to ≈0 (both are
// ≈0 once R_t/R ≥ 0.02 at λ = 10, system radius 1000, R = 100).
func DefaultRatios() []float64 {
	out := make([]float64, 0, 40)
	for q := 0.001; q <= 0.0405; q += 0.001 {
		out = append(out, q)
	}
	return out
}
