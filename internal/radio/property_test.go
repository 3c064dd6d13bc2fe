package radio

import (
	"math"
	"slices"
	"testing"

	"gs3/internal/fault"
	"gs3/internal/geom"
	"gs3/internal/rng"
)

// bruteWithinRange is the all-pairs reference for the grid query: same
// inclusion predicate (squared distance, boundary inclusive), ascending
// IDs, no spatial index. Any divergence from WithinRangeAppend is a bucketing
// bug (wrong ring bound, stale entry, missed boundary cell).
func bruteWithinRange(m *Medium, p geom.Point, dist float64, exclude NodeID) []NodeID {
	var out []NodeID
	r2 := dist * dist
	for i, on := range m.on {
		id := NodeID(i)
		if !on || id == exclude {
			continue
		}
		if m.pos[i].Dist2(p) <= r2 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// unboundedRadii are query radii no bucket ring bounds: 1e300 overflows
// the ring's int, and so do infinity and NaN.
var unboundedRadii = []float64{1e300, math.Inf(1), math.NaN()}

// TestWithinRangePropertyVsBruteForce drives random deployments through
// interleaved Place/Remove/Move churn and checks, after every step, that
// the optimized query path matches the brute-force reference for query
// points that deliberately straddle bucket boundaries.
func TestWithinRangePropertyVsBruteForce(t *testing.T) {
	for _, cellSize := range []float64{5, 30, 100} {
		src := rng.New(uint64(1000 + int(cellSize)))
		p := Params{MaxRange: 100, DiffusionSpeed: 100, CellSize: cellSize}
		m, err := NewMedium(p)
		if err != nil {
			t.Fatal(err)
		}

		place := func(id NodeID) {
			// Half the nodes land exactly on bucket edges (multiples of
			// the cell size), the rest anywhere in the region.
			if src.Intn(2) == 0 {
				m.Place(id, geom.Point{
					X: float64(src.Intn(9)-4) * cellSize,
					Y: float64(src.Intn(9)-4) * cellSize,
				})
				return
			}
			x, y := src.Range(-200, 200), src.Range(-200, 200)
			m.Place(id, geom.Point{X: x, Y: y})
		}

		const n = 60
		for id := NodeID(0); id < n; id++ {
			place(id)
		}

		check := func(step int) {
			t.Helper()
			// Query apexes on bucket corners, bucket centers, and a
			// random point; radii below, equal to, and above cellSize.
			apexes := []geom.Point{
				{X: 0, Y: 0},
				{X: cellSize, Y: -2 * cellSize},
				{X: cellSize / 2, Y: cellSize / 2},
			}
			rx, ry := src.Range(-150, 150), src.Range(-150, 150)
			apexes = append(apexes, geom.Point{X: rx, Y: ry})
			for _, apex := range apexes {
				// Radii below, equal to and above the cell size, one whose
				// ring dwarfs the grid, and the unbounded ones.
				for _, dist := range append([]float64{cellSize / 3, cellSize, 2.5 * cellSize, 40 * cellSize}, unboundedRadii...) {
					exclude := NodeID(src.Intn(n))
					want := bruteWithinRange(m, apex, dist, exclude)
					got := m.WithinRangeAppend(nil, apex, dist, exclude)
					if !slices.Equal(got, want) {
						t.Fatalf("cell %v step %d: WithinRangeAppend(%v, %v, %d) = %v, want %v",
							cellSize, step, apex, dist, exclude, got, want)
					}
					appended := m.WithinRangeAppend([]NodeID{None}, apex, dist, exclude)
					if appended[0] != None || !slices.Equal(appended[1:], want) {
						t.Fatalf("cell %v step %d: WithinRangeAppend = %v, want prefix-preserving %v",
							cellSize, step, appended, want)
					}
				}
			}
		}

		check(-1)
		for step := 0; step < 40; step++ {
			id := NodeID(src.Intn(n))
			switch src.Intn(3) {
			case 0: // move (Place on an existing or removed node)
				place(id)
			case 1:
				m.Remove(id)
			case 2: // re-add
				place(id)
			}
			check(step)
		}
	}
}

// bruteHeadsWithinRange is the all-pairs reference for the head-only
// query: filter on the headRole flag, same predicate and order.
func bruteHeadsWithinRange(m *Medium, p geom.Point, dist float64, exclude NodeID) []NodeID {
	var out []NodeID
	r2 := dist * dist
	for i, on := range m.on {
		id := NodeID(i)
		if !on || !m.headRole[i] || id == exclude {
			continue
		}
		if m.pos[i].Dist2(p) <= r2 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// TestHeadsWithinRangePropertyVsBruteForce churns placements, removals,
// and head-role flips, and checks after every step that the head index
// matches a brute-force filter over the role flags. Any divergence is a
// dual-grid maintenance bug (Place/Remove/SetHeadRole out of sync).
func TestHeadsWithinRangePropertyVsBruteForce(t *testing.T) {
	src := rng.New(99)
	p := Params{MaxRange: 100, DiffusionSpeed: 100, CellSize: 30}
	m, err := NewMedium(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	place := func(id NodeID) {
		x, y := src.Range(-150, 150), src.Range(-150, 150)
		m.Place(id, geom.Point{X: x, Y: y})
	}
	for id := NodeID(0); id < n; id++ {
		place(id)
		if src.Intn(3) == 0 {
			m.SetHeadRole(id, true)
		}
	}
	for step := 0; step < 200; step++ {
		id := NodeID(src.Intn(n))
		switch src.Intn(4) {
		case 0:
			place(id) // move keeps the head entry relocated
		case 1:
			m.Remove(id) // removal must clear the head entry and flag
		case 2:
			m.SetHeadRole(id, true)
		case 3:
			m.SetHeadRole(id, false)
		}
		apex := geom.Point{X: float64(src.Intn(7)-3) * 30, Y: float64(src.Intn(7)-3) * 30}
		for _, dist := range append([]float64{20, 30, 80, 1200}, unboundedRadii...) {
			want := bruteHeadsWithinRange(m, apex, dist, None)
			got := m.HeadsWithinRangeAppend(nil, apex, dist, None)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: HeadsWithinRange(%v, %v) = %v, want %v", step, apex, dist, got, want)
			}
			if disk := m.HeadsWithinDisk(nil, apex, dist); !slices.Equal(disk, want) {
				t.Fatalf("step %d: HeadsWithinDisk = %v, want %v", step, disk, want)
			}
		}
	}
}

// TestBroadcastReceiverSetRegression pins the fault-draw contract of
// Broadcast for a fixed seed: one DropDelivery per in-range receiver,
// in ascending ID order, a DupDelivery per survivor, then one jitter
// draw per broadcast. An injector replayed from the same seed over the
// brute-force receiver list must predict the surviving set exactly, and
// end each broadcast at the same point of the stream; any change to
// query ordering or randomness consumption breaks experiment
// reproducibility.
func TestBroadcastReceiverSetRegression(t *testing.T) {
	const seed = 42
	plan := fault.Plan{Loss: 0.3, Dup: 0.1, Jitter: 0.2}
	newInjector := func() *fault.Injector {
		inj, err := fault.NewInjector(plan, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	m, err := NewMedium(Params{MaxRange: 100, DiffusionSpeed: 100, CellSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(newInjector())
	deploy := rng.New(7)
	for id := NodeID(0); id < 80; id++ {
		x, y := deploy.Range(-150, 150), deploy.Range(-150, 150)
		m.Place(id, geom.Point{X: x, Y: y})
	}

	replay := newInjector()
	for round := 0; round < 20; round++ {
		sender := NodeID(round % 80)
		pos, _ := m.Position(sender)
		inRange := bruteWithinRange(m, pos, 100, sender)
		var want []NodeID
		for _, id := range inRange {
			if replay.DropDelivery() {
				continue
			}
			want = append(want, id)
			if replay.DupDelivery() {
				want = append(want, id)
			}
		}
		replay.JitterDelay(1)
		got := m.Broadcast(sender, m.Audience(nil, sender, 100))
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Broadcast(%d) = %v, want %v", round, sender, got, want)
		}
	}
}
