package exp

import (
	"testing"

	"gs3/internal/runner"
)

func TestDisasterSweepDeterminism(t *testing.T) {
	radii := []float64{60, 120}
	serial, err := DisasterSweep(runner.Parallel(1), 100, 250, radii, 3, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := DisasterSweep(runner.Parallel(4), 100, 250, radii, 3, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Format() != parallel.Format() {
		t.Errorf("R2 tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.Format(), parallel.Format())
	}
	if len(serial.Rows) != len(radii) {
		t.Fatalf("R2 has %d rows, want %d", len(serial.Rows), len(radii))
	}
	// A bigger blast kills more nodes (column 3 = meanKilled).
	if serial.Rows[1][3] <= serial.Rows[0][3] {
		t.Errorf("meanKilled not increasing with radius: %v vs %v",
			serial.Rows[0][3], serial.Rows[1][3])
	}
}

func TestAdversaryMatrixGreedyAtLeastRandom(t *testing.T) {
	scenarios := AdversaryScenarios(100, 250)
	serial, err := AdversaryMatrix(runner.Parallel(1), scenarios, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := AdversaryMatrix(runner.Parallel(4), scenarios, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Format() != parallel.Format() {
		t.Errorf("ADV tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.Format(), parallel.Format())
	}
	if len(serial.Rows) != 2*len(scenarios) {
		t.Fatalf("ADV has %d rows, want %d", len(serial.Rows), 2*len(scenarios))
	}
	// Rows come in (random, greedy) pairs; the greedy daemon's healing
	// time (column 3, budget-valued when non-converged) must be >= the
	// random mean on EVERY scenario — the package-level guarantee.
	for i := 0; i < len(serial.Rows); i += 2 {
		random, greedy := serial.Rows[i], serial.Rows[i+1]
		if random[1] != 0 || greedy[1] != 1 {
			t.Fatalf("row pair %d mislabeled: daemon cols %v, %v", i/2, random[1], greedy[1])
		}
		if greedy[3] < random[3] {
			t.Errorf("scenario %v: greedy healTime %v < random mean %v",
				random[0], greedy[3], random[3])
		}
	}
}
