package baseline

import (
	"math"
	"testing"

	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/rng"
)

func testDeployment(t *testing.T) field.Deployment {
	t.Helper()
	dep, err := field.Grid(300, 20, 0.2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestLEACHBasic(t *testing.T) {
	dep := testDeployment(t)
	c, err := LEACH(dep, 0.05, 600, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Heads) == 0 {
		t.Fatal("no heads elected")
	}
	// Expected number of heads ≈ p·n.
	want := 0.05 * float64(dep.N())
	if got := float64(len(c.Heads)); got < want/3 || got > want*3 {
		t.Errorf("heads = %v, expected ≈%v", got, want)
	}
	// Every node is clustered (txRange covers the whole region).
	for i, cl := range c.Cluster {
		if cl < 0 {
			t.Fatalf("node %d unclustered", i)
		}
	}
	if c.Messages == 0 {
		t.Error("no messages counted")
	}
}

func TestLEACHInvalidP(t *testing.T) {
	dep := testDeployment(t)
	for _, p := range []float64{0, 1, -0.5, 2} {
		if _, err := LEACH(dep, p, 100, rng.New(1)); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
}

func TestLEACHMembersJoinNearestHead(t *testing.T) {
	dep := testDeployment(t)
	c, err := LEACH(dep, 0.05, 600, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range c.Cluster {
		if cl < 0 {
			continue
		}
		own := c.Positions[i].Dist(c.Positions[c.Heads[cl]])
		for _, h := range c.Heads {
			if d := c.Positions[i].Dist(c.Positions[h]); d < own-1e-9 {
				t.Fatalf("node %d not at nearest head", i)
			}
		}
	}
	// Overlap is zero when members pick the nearest head with unlimited
	// range — the interesting spread shows in the radius distribution.
	if f := c.OverlapFraction(); f != 0 {
		t.Errorf("overlap = %v", f)
	}
}

func TestLEACHOutOfRangeUnclustered(t *testing.T) {
	dep := testDeployment(t)
	c, err := LEACH(dep, 0.01, 30, rng.New(3)) // tiny range, few heads
	if err != nil {
		t.Fatal(err)
	}
	un := 0
	for _, cl := range c.Cluster {
		if cl < 0 {
			un++
		}
	}
	if un == 0 {
		t.Error("expected unclustered nodes at tiny range")
	}
}

func TestLEACHRadiusUnbounded(t *testing.T) {
	// The headline LEACH weakness: cluster radii vary wildly run to
	// run, with maxima far beyond any fixed R the operator wanted.
	dep := testDeployment(t)
	src := rng.New(11)
	maxima := make([]float64, 0, 20)
	for i := 0; i < 20; i++ {
		c, err := LEACH(dep, 0.02, 600, src)
		if err != nil {
			t.Fatal(err)
		}
		maxima = append(maxima, c.MaxRadius())
	}
	spread := 0.0
	for _, m := range maxima {
		spread = math.Max(spread, m)
	}
	if spread < 100 {
		t.Errorf("max LEACH radius %v suspiciously tight", spread)
	}
}

func TestLEACHHealCostsFullPass(t *testing.T) {
	dep := testDeployment(t)
	c, err := LEACHHeal(dep, 0.05, 600, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Healing re-clusters everyone: message count scales with n.
	if c.Messages < dep.N()/2 {
		t.Errorf("heal messages = %d for n = %d", c.Messages, dep.N())
	}
}

func TestHopClusterBasic(t *testing.T) {
	dep := testDeployment(t)
	c, err := HopCluster(dep, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Heads) == 0 {
		t.Fatal("no clusters")
	}
	for i, cl := range c.Cluster {
		if cl < 0 {
			t.Fatalf("node %d unclustered", i)
		}
	}
}

func TestHopClusterInvalidHops(t *testing.T) {
	dep := testDeployment(t)
	if _, err := HopCluster(dep, 0, 40); err == nil {
		t.Error("maxHops=0 accepted")
	}
}

func TestHopClusterHopBoundHolds(t *testing.T) {
	dep := testDeployment(t)
	maxHops := 2
	txRange := 45.0
	c, err := HopCluster(dep, maxHops, txRange)
	if err != nil {
		t.Fatal(err)
	}
	// Geographic distance to head can be at most maxHops·txRange.
	for _, r := range c.Radii() {
		if r > float64(maxHops)*txRange+1e-9 {
			t.Errorf("radius %v exceeds hop bound", r)
		}
	}
}

func TestHopClusterHasGeographicOverlap(t *testing.T) {
	// The paper's point about geography-unaware clustering: BFS growth
	// leaves many nodes closer to another cluster's head than their
	// own.
	dep := testDeployment(t)
	c, err := HopCluster(dep, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if f := c.OverlapFraction(); f <= 0 {
		t.Errorf("overlap fraction = %v, expected > 0", f)
	}
}

func TestRadiiAndMaxRadius(t *testing.T) {
	c := Clustering{
		Positions: []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 1, Y: 0}},
		Heads:     []int{0},
		Cluster:   []int{0, 0, -1},
	}
	radii := c.Radii()
	if len(radii) != 2 {
		t.Fatalf("radii = %v", radii)
	}
	if c.MaxRadius() != 5 {
		t.Errorf("max radius = %v", c.MaxRadius())
	}
}

func TestOverlapFractionEmpty(t *testing.T) {
	var c Clustering
	if c.OverlapFraction() != 0 {
		t.Error("empty clustering overlap != 0")
	}
}

func TestHopClusterDeterministic(t *testing.T) {
	dep := testDeployment(t)
	a, _ := HopCluster(dep, 3, 40)
	b, _ := HopCluster(dep, 3, 40)
	if len(a.Heads) != len(b.Heads) {
		t.Fatal("nondeterministic head count")
	}
	for i := range a.Cluster {
		if a.Cluster[i] != b.Cluster[i] {
			t.Fatal("nondeterministic clustering")
		}
	}
}

func TestDataRoundZeroLoss(t *testing.T) {
	dep := testDeployment(t)
	c, err := LEACH(dep, 0.05, 600, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DataRound(c, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generated != dep.N() {
		t.Errorf("generated %d readings, want %d", rep.Generated, dep.N())
	}
	if rep.Delivered != rep.Generated {
		t.Errorf("zero-loss round delivered %d of %d readings", rep.Delivered, rep.Generated)
	}
	if rep.HeadTx != len(c.Heads) {
		t.Errorf("HeadTx %d, want one per head (%d)", rep.HeadTx, len(c.Heads))
	}
}

func TestDataRoundLossy(t *testing.T) {
	dep := testDeployment(t)
	c, err := LEACH(dep, 0.05, 600, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	loss := 0.3
	rep, err := DataRound(c, loss, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// A member reading needs two independent survivals: expect roughly
	// (1-loss)^2, within a loose tolerance.
	want := (1 - loss) * (1 - loss)
	if ratio := float64(rep.Delivered) / float64(rep.Generated); math.Abs(ratio-want) > 0.1 {
		t.Errorf("lossy delivery ratio %v, expected ≈%v", ratio, want)
	}
	// Determinism: same clustering, same seed, same report.
	rep2, err := DataRound(c, loss, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep != rep2 {
		t.Errorf("same seed, different reports: %+v vs %+v", rep, rep2)
	}
	if _, err := DataRound(c, 1.0, rng.New(1)); err == nil {
		t.Error("loss=1.0 accepted")
	}
}
