package exp

import (
	"math"
	"strings"
	"testing"

	"gs3/internal/runner"
)

func TestTableFormat(t *testing.T) {
	tb := Table{
		ID:      "X1",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]float64{{1, 2}, {3, 4}},
		Notes:   []string{"note"},
	}
	s := tb.Format()
	for _, want := range []string{"[X1]", "demo", "a\tb", "1\t2", "# note"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
	col := tb.Column(1)
	if len(col) != 2 || col[0] != 2 || col[1] != 4 {
		t.Errorf("Column(1) = %v", col)
	}
}

func TestFigure7ShapeMatchesPaper(t *testing.T) {
	ratios := []float64{0.001, 0.005, 0.01, 0.02, 0.03}
	tb := Figure7(10, 100, ratios, 20000, 42)
	if len(tb.Rows) != len(ratios) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	prevA, prevE := 2.0, 2.0
	for _, row := range tb.Rows {
		q, a, e := row[0], row[1], row[2]
		// Both columns decrease in Rt/R.
		if a > prevA+1e-12 {
			t.Errorf("analytic not decreasing at %v", q)
		}
		if e > prevE+0.02 {
			t.Errorf("empirical not decreasing at %v", q)
		}
		prevA, prevE = a, e
		// Empirical tracks analytic.
		if math.Abs(a-e) > 0.02 {
			t.Errorf("at Rt/R=%v analytic %v vs empirical %v", q, a, e)
		}
	}
	// Paper claim: ≈0 at Rt/R ≥ 0.02.
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] > 1e-10 || last[2] > 1e-3 {
		t.Errorf("tail not ≈0: %v", last)
	}
}

func TestFigure8ShapeMatchesPaper(t *testing.T) {
	ratios := []float64{0.002, 0.005, 0.01, 0.02}
	tb := Figure8(10, 100, ratios, 30000, 43)
	for i, row := range tb.Rows {
		a, e := row[1], row[2]
		if a < 0 || e < 0 {
			t.Fatalf("negative diameter at row %d", i)
		}
		// Empirical tracks the analytic formula within sampling noise.
		tol := 0.15*a + 1.0
		if math.Abs(a-e) > tol {
			t.Errorf("Rt/R=%v: analytic %v vs empirical %v", row[0], a, e)
		}
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] > 1e-9 {
		t.Errorf("analytic tail = %v", last[1])
	}
}

func TestPerNodeStateConstant(t *testing.T) {
	tb, err := PerNodeState(runner.Parallel(2), 100, []float64{300, 500}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	small, large := tb.Rows[0], tb.Rows[1]
	if large[0] <= small[0] {
		t.Fatalf("network did not grow: %v vs %v", small[0], large[0])
	}
	// The per-node state bound is constant: parent + ≤5 children + ≤6
	// neighbors = 12 identities for small heads; the big node reaches
	// 13 (6 children + 6 neighbors + its self-parent).
	for _, row := range tb.Rows {
		if row[2] > 13 {
			t.Errorf("head stores %v identities (n=%v)", row[2], row[0])
		}
		if row[3] != 1 {
			t.Errorf("associate stores %v identities", row[3])
		}
	}
	// And it does not grow with n.
	if large[2] > small[2]+2 {
		t.Errorf("max IDs grew with n: %v -> %v", small[2], large[2])
	}
}

func TestStaticConvergenceLinear(t *testing.T) {
	tb, fit, err := StaticConvergence(runner.Parallel(2), 100, []float64{300, 450, 600}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if fit.Slope <= 0 {
		t.Errorf("slope = %v", fit.Slope)
	}
	if fit.R2 < 0.9 {
		t.Errorf("R2 = %v: configure time not linear in Db", fit.R2)
	}
}

func TestMessageLocalityConstantPerNode(t *testing.T) {
	tb, err := MessageLocality(runner.Parallel(2), 100, []float64{300, 500}, 7)
	if err != nil {
		t.Fatal(err)
	}
	small, large := tb.Rows[0], tb.Rows[1]
	// Per-node traffic must not grow with network size (allow 50%
	// boundary-effect slack).
	if large[1] > small[1]*1.5+0.5 {
		t.Errorf("broadcasts per node grew: %v -> %v", small[1], large[1])
	}
	if large[2] > small[2]*1.5+1 {
		t.Errorf("replies per node grew: %v -> %v", small[2], large[2])
	}
}

func TestPerturbationConvergenceLinearish(t *testing.T) {
	if testing.Short() {
		t.Skip("slow scaling experiment")
	}
	tb, fit, err := PerturbationConvergence(runner.Parallel(2), 100, 700, []float64{170, 400, 600}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Healing time grows with Dp (positive slope); strict linearity is
	// noisy at three points, so just require monotone growth overall.
	if fit.Slope <= 0 {
		t.Errorf("healing time does not grow with Dp: slope %v", fit.Slope)
	}
	first, last := tb.Rows[0][1], tb.Rows[len(tb.Rows)-1][1]
	if last < first {
		t.Errorf("healing time decreased: %v -> %v", first, last)
	}
}

func TestArbitraryStateConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow scaling experiment")
	}
	tb, err := ArbitraryStateConvergence(runner.Parallel(2), 100, 500, []float64{150, 300}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[2] == 0 {
			t.Errorf("Dc=%v corrupted nothing", row[0])
		}
		if row[1] < 0 {
			t.Errorf("negative stabilize time")
		}
	}
}

func TestStructureLifetimeFactorGrowsWithNc(t *testing.T) {
	if testing.Short() {
		t.Skip("slow lifetime experiment")
	}
	tb, err := StructureLifetime(runner.Parallel(2), 100, 260, []float64{30, 18}, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	sparse, dense := tb.Rows[0], tb.Rows[1]
	if dense[0] <= sparse[0] {
		t.Fatalf("nc did not grow: %v vs %v", sparse[0], dense[0])
	}
	// Healing must beat the static baseline by a growing factor.
	if sparse[3] < 1.5 {
		t.Errorf("sparse factor = %v, want > 1.5", sparse[3])
	}
	if dense[3] <= sparse[3] {
		t.Errorf("factor did not grow with nc: %v -> %v", sparse[3], dense[3])
	}
}

// TestStructureLifetimeRejectsDegenerateEnergy pins the guard on T2's
// static baseline, energy/(80·energy/400): an energy of 0 makes it NaN
// and one of 5e-324 makes it +Inf, and either would reach the
// conversion of the sweep budget to int, whose result the Go spec
// leaves to the implementation.
func TestStructureLifetimeRejectsDegenerateEnergy(t *testing.T) {
	for _, energy := range []float64{0, 5e-324} {
		if _, err := StructureLifetime(runner.Parallel(1), 100, 260, []float64{30}, energy, 7); err == nil {
			t.Errorf("energy %v: nil error, want one", energy)
		}
	}
}

func TestSlideConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("slow slide experiment")
	}
	tb, err := SlideConsistency(100, 300, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	before, after := tb.Rows[0], tb.Rows[1]
	if after[4] == 0 {
		t.Fatal("structure died entirely")
	}
	// After the slide the mean neighbor distance stays within the DI
	// band around √3R (same-shift cells stay at √3R exactly; mixed
	// shifts may deviate up to the relaxed bound).
	spacing := 100 * math.Sqrt(3)
	if math.Abs(after[1]-spacing) > spacing/2 {
		t.Errorf("mean neighbor distance after slide = %v, ideal %v", after[1], spacing)
	}
	_ = before
}

func TestHealingLocalityVsSize(t *testing.T) {
	if testing.Short() {
		t.Skip("slow locality experiment")
	}
	tb, err := HealingLocalityVsSize(runner.Parallel(2), 100, []float64{400, 600}, 7)
	if err != nil {
		t.Fatal(err)
	}
	small, large := tb.Rows[0], tb.Rows[1]
	if large[0] <= small[0] {
		t.Fatal("network did not grow")
	}
	// Impact radius must not grow with network size.
	if large[1] > small[1]*2+200 {
		t.Errorf("impact radius grew with n: %v -> %v", small[1], large[1])
	}
}

func TestBigMoveLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("slow mobility experiment")
	}
	tb, err := BigMoveLocality(runner.Parallel(2), 100, 500, []float64{1.5, 2.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		d, bound, p50 := row[0], row[1], row[2]
		if math.Abs(bound-math.Sqrt(3)*d/2) > 1e-9 {
			t.Errorf("bound mis-computed for d=%v", d)
		}
		// Median containment within bound + one search-radius slack; the
		// tail of sector-boundary tie flips is reported, not asserted.
		slack := 100*math.Sqrt(3) + 50 + 25
		if p50 > bound+slack {
			t.Errorf("d=%v: p50 radius %v beyond bound %v + slack", d, p50, bound)
		}
	}
}

func TestVsLEACH(t *testing.T) {
	if testing.Short() {
		t.Skip("slow comparison")
	}
	tb, err := VsLEACH(runner.Parallel(2), 100, []float64{300, 450}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		gs3Max, leachMax := row[1], row[2]
		// GS³ keeps radii within the proved band; LEACH does not.
		bound := 100 + 2*25/math.Sqrt(3) + 1 // CellRadiusBound for R=100,Rt=25
		if gs3Max > 100*math.Sqrt(3)+50+1 {  // boundary cells may reach √3R+2Rt
			t.Errorf("GS3 max radius %v beyond boundary bound", gs3Max)
		}
		if leachMax <= bound {
			t.Logf("note: LEACH happened to stay tight on this run: %v", leachMax)
		}
	}
	// Healing cost: LEACH cost grows with n, GS³'s does not.
	small, large := tb.Rows[0], tb.Rows[1]
	if large[4] <= small[4] {
		t.Errorf("LEACH heal cost did not grow with n: %v -> %v", small[4], large[4])
	}
	if large[3] > small[3]*3+200 {
		t.Errorf("GS3 heal cost grew with n: %v -> %v", small[3], large[3])
	}
}

func TestVsHopCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("slow comparison")
	}
	tb, err := VsHopCluster(100, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	gs3, hop := tb.Rows[0], tb.Rows[1]
	// GS³ has (near-)zero overlap by fixpoint F₃; hop clustering has
	// real overlap.
	if gs3[4] > 0.01 {
		t.Errorf("GS3 overlap = %v", gs3[4])
	}
	if hop[4] <= gs3[4] {
		t.Errorf("hop clustering overlap %v not worse than GS3 %v", hop[4], gs3[4])
	}
}

func TestGapResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("slow gap experiment")
	}
	tb, err := GapResilience(100, 400, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	joined, covered := row[2], row[3]
	if joined == 0 {
		t.Fatal("nothing joined")
	}
	if covered < joined*0.75 {
		t.Errorf("only %v of %v gap joiners covered", covered, joined)
	}
}

func TestFrequencyReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("slow comparison")
	}
	tb, err := FrequencyReuse(100, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	gs3, leach, hop := tb.Rows[0], tb.Rows[1], tb.Rows[2]
	if gs3[2] != 3 {
		t.Errorf("GS3 channels = %v, want 3", gs3[2])
	}
	if gs3[3] != 0 {
		t.Errorf("GS3 reuse-3 has %v conflicts", gs3[3])
	}
	if leach[2] < gs3[2] && hop[2] < gs3[2] {
		t.Errorf("both baselines beat reuse-3: leach=%v hop=%v", leach[2], hop[2])
	}
}
