package radio

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gs3/internal/geom"
)

// wallBetween returns a thin vertical wall polygon at x ∈ [4.9, 5.1]
// spanning y ∈ [-10, 10].
func wallBetween() geom.Polygon {
	return geom.Polygon{
		{X: 4.9, Y: -10}, {X: 5.1, Y: -10},
		{X: 5.1, Y: 10}, {X: 4.9, Y: 10},
	}
}

func occlusionMedium(t *testing.T) *Medium {
	t.Helper()
	m, err := NewMedium(Params{MaxRange: 20, DiffusionSpeed: 100})
	if err != nil {
		t.Fatal(err)
	}
	m.Place(0, geom.Point{X: 0, Y: 0})
	m.Place(1, geom.Point{X: 10, Y: 0}) // across the wall from 0
	m.Place(2, geom.Point{X: 0, Y: 5})  // same side as 0
	return m
}

func TestOccludedPairs(t *testing.T) {
	m := occlusionMedium(t)
	if d := m.Dist(0, 1); d != 10 {
		t.Errorf("free-space Dist = %v, want 10", d)
	}
	m.SetObstacles([]geom.Polygon{wallBetween()})
	if !math.IsInf(m.Dist(0, 1), 1) {
		t.Error("Dist across the wall should be +Inf")
	}
	if d := m.Dist(0, 2); d != 5 {
		t.Errorf("same-side Dist = %v, want 5", d)
	}
	m.SetObstacles(nil)
	if d := m.Dist(0, 1); d != 10 {
		t.Errorf("Dist after obstacles removed = %v, want 10", d)
	}
}

func TestOcclusionFiltersRangeQueries(t *testing.T) {
	m := occlusionMedium(t)
	m.SetObstacles([]geom.Polygon{wallBetween()})
	got := m.WithinRangeAppend(nil, geom.Point{X: 0, Y: 0}, 20, 0)
	want := []NodeID{2}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("WithinRangeAppend across wall = %v, want %v", got, want)
	}
	// WithinDisk ignores obstacles: disasters reach across walls.
	disk := m.WithinDisk(geom.Point{X: 0, Y: 0}, 20, 0)
	if len(disk) != 2 {
		t.Errorf("WithinDisk = %v, want both nodes", disk)
	}
	// The head index follows the same split.
	m.SetHeadRole(1, true)
	m.SetHeadRole(2, true)
	if got := m.HeadsWithinRangeAppend(nil, geom.Point{X: 0, Y: 0}, 20, None); len(got) != 1 || got[0] != 2 {
		t.Errorf("HeadsWithinRangeAppend across wall = %v, want [2]", got)
	}
	if got := m.HeadsWithinDisk(nil, geom.Point{X: 0, Y: 0}, 20); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("HeadsWithinDisk = %v, want [1 2]", got)
	}
	// Broadcast inherits the filter.
	rcv := broadcast(m, 0, 20)
	if len(rcv) != 1 || rcv[0] != 2 {
		t.Errorf("Broadcast receivers = %v, want [2]", rcv)
	}
}

func TestOcclusionBlocksUnicast(t *testing.T) {
	m := occlusionMedium(t)
	m.SetObstacles([]geom.Polygon{wallBetween()})
	if _, err := m.Unicast(0, 1, 20); !errors.Is(err, ErrOccluded) {
		t.Errorf("Unicast across wall: err = %v, want ErrOccluded", err)
	}
	if m.Stats().OcclusionBlocks != 1 {
		t.Errorf("OcclusionBlocks = %d, want 1", m.Stats().OcclusionBlocks)
	}
	if m.Stats().Unicasts != 0 {
		t.Errorf("blocked send counted as unicast")
	}
	if _, err := m.Unicast(0, 2, 20); err != nil {
		t.Errorf("same-side unicast failed: %v", err)
	}
}

// TestOcclusionSymmetryOnMedium is the medium-level half of the
// symmetry property: for random node pairs and a random star-shaped
// obstacle, Dist(a,b) == Dist(b,a) and the visibility each way through
// range queries agrees with it.
func TestOcclusionSymmetryOnMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m, err := NewMedium(Params{MaxRange: 40, DiffusionSpeed: 100})
		if err != nil {
			t.Fatal(err)
		}
		pa := geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		pb := geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		m.Place(0, pa)
		m.Place(1, pb)
		n := 3 + rng.Intn(4)
		pg := make(geom.Polygon, n)
		cx, cy := rng.Float64()*20, rng.Float64()*20
		for i := range pg {
			theta := 2 * math.Pi * float64(i) / float64(n)
			r := 1 + rng.Float64()*4
			pg[i] = geom.Point{X: cx + r*math.Cos(theta), Y: cy + r*math.Sin(theta)}
		}
		m.SetObstacles([]geom.Polygon{pg})
		occluded := math.IsInf(m.Dist(0, 1), 1)
		if occluded != math.IsInf(m.Dist(1, 0), 1) {
			t.Fatalf("trial %d: Dist asymmetric", trial)
		}
		aSeesB := len(m.WithinRangeAppend(nil, pa, 40, 0)) == 1
		bSeesA := len(m.WithinRangeAppend(nil, pb, 40, 1)) == 1
		if aSeesB != bSeesA {
			t.Fatalf("trial %d: asymmetric visibility: a sees b=%v, b sees a=%v", trial, aSeesB, bSeesA)
		}
		if aSeesB == occluded {
			t.Fatalf("trial %d: visibility disagrees with Dist", trial)
		}
	}
}

func TestSendHookFires(t *testing.T) {
	m := occlusionMedium(t)
	var sends []NodeID
	var kinds []bool
	m.SetSendHook(func(id NodeID, broadcast bool) {
		sends = append(sends, id)
		kinds = append(kinds, broadcast)
	})
	broadcast(m, 0, 20)
	if _, err := m.Unicast(1, 2, 20); err != nil {
		t.Fatal(err)
	}
	// A refused unicast (out of range) must not fire the hook.
	if _, err := m.Unicast(1, 2, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("expected out-of-range, got %v", err)
	}
	if len(sends) != 2 || sends[0] != 0 || sends[1] != 1 {
		t.Errorf("sends = %v, want [0 1]", sends)
	}
	if !kinds[0] || kinds[1] {
		t.Errorf("kinds = %v, want [true false]", kinds)
	}
	m.SetSendHook(nil)
	broadcast(m, 0, 20)
	if len(sends) != 2 {
		t.Error("hook fired after removal")
	}
}
