package exp

import (
	"testing"

	"gs3/internal/runner"
)

// TestDataPlaneDeterminism extends the parallel-serial contract to the
// data plane: D1 runs millions of scheduled packet deliveries through
// the fault layer and churn generator, and its table must still format
// to the same bytes under Parallel(1) and a multi-worker pool.
func TestDataPlaneDeterminism(t *testing.T) {
	rates := []float64{0, 0.2}
	serial, err := DataPlane(runner.Parallel(1), 10, 45, rates, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := DataPlane(runner.Parallel(4), 10, 45, rates, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Format() != parallel.Format() {
		t.Errorf("D1 tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.Format(), parallel.Format())
	}
	if len(serial.Rows) != len(rates)*2 {
		t.Fatalf("D1 rows = %d, want %d", len(serial.Rows), len(rates)*2)
	}
	for _, row := range serial.Rows {
		if row[2] != 2000 {
			t.Errorf("combo loss=%v churn=%v generated %v packets, want 2000", row[0], row[1], row[2])
		}
		if row[4] < 0 || row[4] > 1 {
			t.Errorf("combo loss=%v churn=%v delivery ratio %v out of [0,1]", row[0], row[1], row[4])
		}
	}
	// Zero-loss zero-churn is the best-case combo; it must beat or match
	// the lossy churning ones.
	best := serial.Rows[0][4]
	for _, row := range serial.Rows[1:] {
		if row[4] > best+1e-9 {
			t.Errorf("combo loss=%v churn=%v ratio %v beats the zero-fault combo's %v", row[0], row[1], row[4], best)
		}
	}
}

// TestDataGatherVsLEACH sanity-checks the D1b comparison: both schemes
// deliver everything at zero loss, and GS³'s retried hop-by-hop relay
// must not fall below LEACH's unretried two-leg round under loss.
func TestDataGatherVsLEACH(t *testing.T) {
	tab, err := DataGatherVsLEACH(runner.Parallel(1), 10, 45, []float64{0, 0.2}, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	zero := tab.Rows[0]
	if zero[1] != 1 || zero[2] != 1 {
		t.Errorf("zero-loss ratios gs3=%v leach=%v, want 1 and 1", zero[1], zero[2])
	}
	lossy := tab.Rows[1]
	if lossy[1] < lossy[2] {
		t.Errorf("at 20%% loss GS3 ratio %v fell below LEACH's %v despite per-hop retries", lossy[1], lossy[2])
	}
}
