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
	return out
}

// unboundedRadii are query radii whose cell rectangles reach past every
// key: 1e300, infinity and NaN.
var unboundedRadii = []float64{1e300, math.Inf(1), math.NaN()}

// wildPoints are positions no cell holds (spatial.KeyOf) on a grid of
// the given cell size: non-finite, ±1e300, and 2³⁰+5 cells out.
func wildPoints(cellSize float64) []geom.Point {
	far := (1<<30 + 5) * cellSize
	return []geom.Point{
		{X: math.NaN(), Y: 0}, {X: 0, Y: math.Inf(1)}, {X: math.Inf(-1), Y: math.Inf(-1)},
		{X: 1e300, Y: 1e300}, {X: -1e300, Y: 5}, {X: far, Y: 0}, {X: 3, Y: -far},
	}
}

// checkCells fails unless every cell record, the wild one included,
// lists its nodes in strictly ascending ID order, each on the medium and
// in that cell at its position, and its heads are exactly its head-role
// nodes, in the same order. Together the records must list every
// on-medium node.
func checkCells(t *testing.T, m *Medium) {
	t.Helper()
	same := func(a, b gridEntry) bool {
		return a.id == b.id && math.Float64bits(a.pos.X) == math.Float64bits(b.pos.X) &&
			math.Float64bits(a.pos.Y) == math.Float64bits(b.pos.Y)
	}
	listed := 0
	for i := -1; i < len(m.recs); i++ {
		c := &m.wild
		if i >= 0 {
			c = &m.recs[i]
		}
		var heads []gridEntry
		for j, e := range c.nodes {
			switch {
			case j > 0 && c.nodes[j-1].id >= e.id:
				t.Fatalf("cell %d lists node %d before node %d", i, c.nodes[j-1].id, e.id)
			case !m.Alive(e.id) || !same(e, gridEntry{e.id, m.pos[e.id]}) || m.cellAt(e.pos) != c:
				t.Fatalf("cell %d lists node %d at %v, which is not on the medium there", i, e.id, e.pos)
			}
			if m.headRole[e.id] {
				heads = append(heads, e)
			}
		}
		if !slices.EqualFunc(c.heads, heads, same) {
			t.Fatalf("cell %d lists heads %v, want its head-role nodes %v", i, c.heads, heads)
		}
		listed += len(c.nodes)
	}
	if listed != m.Count() {
		t.Fatalf("the cells list %d nodes, the medium holds %d", listed, m.Count())
	}
}

// TestWithinRangePropertyVsBruteForce drives random deployments through
// interleaved Place/Remove/Move churn and checks, after every step, that
// the optimized query paths (WithinRangeAppend, WithinDisk, Audience)
// match the brute-force reference for query points that deliberately
// straddle bucket boundaries, and for wild nodes and query points.
func TestWithinRangePropertyVsBruteForce(t *testing.T) {
	for _, cellSize := range []float64{5, 30, 100} {
		src := rng.New(uint64(1000 + int(cellSize)))
		p := Params{MaxRange: 100, DiffusionSpeed: 100, CellSize: cellSize}
		m, err := NewMedium(p)
		if err != nil {
			t.Fatal(err)
		}

		wild := wildPoints(cellSize)
		place := func(id NodeID) {
			// A sixth of the nodes land on wild positions, a third
			// exactly on bucket edges (multiples of the cell size), the
			// rest anywhere in the region.
			switch src.Intn(6) {
			case 0:
				m.Place(id, wild[src.Intn(len(wild))])
				return
			case 1, 2:
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
			checkCells(t, m)
			// Query apexes on bucket corners, bucket centers, and a
			// random point; radii below, equal to, and above cellSize.
			apexes := []geom.Point{
				{X: 0, Y: 0},
				{X: cellSize, Y: -2 * cellSize},
				{X: cellSize / 2, Y: cellSize / 2},
			}
			rx, ry := src.Range(-150, 150), src.Range(-150, 150)
			apexes = append(apexes, geom.Point{X: rx, Y: ry}, wild[src.Intn(len(wild))])
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
					if disk := m.WithinDisk(apex, dist, exclude); !slices.Equal(disk, want) {
						t.Fatalf("cell %v step %d: WithinDisk(%v, %v, %d) = %v, want %v",
							cellSize, step, apex, dist, exclude, disk, want)
					}
					var heard []NodeID
					if m.on[exclude] {
						heard = bruteWithinRange(m, m.pos[exclude], dist, exclude)
					}
					if got := m.Audience(nil, exclude, dist); !slices.Equal(got, heard) {
						t.Fatalf("cell %v step %d: Audience(%d at %v, %v) = %v, want %v",
							cellSize, step, exclude, m.pos[exclude], dist, got, heard)
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
	return out
}

// TestHeadsWithinRangePropertyVsBruteForce churns placements, removals,
// and head-role flips, ordinary and wild, and checks after every step
// that the head lists match a brute-force filter over the role flags.
// Any divergence is a cell-record maintenance bug (Place/Remove/
// SetHeadRole out of sync).
func TestHeadsWithinRangePropertyVsBruteForce(t *testing.T) {
	src := rng.New(99)
	p := Params{MaxRange: 100, DiffusionSpeed: 100, CellSize: 30}
	m, err := NewMedium(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	wild := wildPoints(p.CellSize)
	place := func(id NodeID) {
		if src.Intn(8) == 0 {
			m.Place(id, wild[src.Intn(len(wild))])
			return
		}
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
		checkCells(t, m)
		apex := geom.Point{X: float64(src.Intn(7)-3) * 30, Y: float64(src.Intn(7)-3) * 30}
		if src.Intn(4) == 0 {
			apex = wild[src.Intn(len(wild))]
		}
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

// TestQueriesKeepCallerBuffersApart interleaves range queries into
// reused caller buffers: an Audience kept in a, a query that finds
// nothing into b, which has spare capacity, and then queries whose
// results merge several runs into b and c. Every result must still
// match the brute-force answer after the later queries ran, and a must
// still be the audience Broadcast delivers to: the merge's scratch
// buffer belongs to the medium and aliases no caller's buffer.
func TestQueriesKeepCallerBuffersApart(t *testing.T) {
	m := newTestMedium(t, Params{MaxRange: 100, DiffusionSpeed: 100, CellSize: 30})
	id := NodeID(0)
	for y := 0; y < 12; y++ {
		for x := 0; x < 12; x++ { // IDs run along rows, so neighbouring cells interleave them
			m.Place(id, geom.Point{X: float64(x) * 10, Y: float64(y) * 10})
			m.SetHeadRole(id, id%3 == 0)
			id++
		}
	}
	const sender, radius = 65, 45
	a := m.Audience(nil, sender, radius)
	wantA := bruteWithinRange(m, m.pos[sender], radius, sender)
	b := m.WithinRangeAppend(make([]NodeID, 0, 256), geom.Point{X: 1e4, Y: 1e4}, 10, None)
	var c, wantB, wantC []NodeID
	check := func(query string) {
		t.Helper()
		for name, r := range map[string][2][]NodeID{"a": {a, wantA}, "b": {b, wantB}, "c": {c, wantC}} {
			if !slices.Equal(r[0], r[1]) {
				t.Fatalf("after %s: %s = %v, want %v", query, name, r[0], r[1])
			}
		}
	}
	if len(b) != 0 {
		t.Fatalf("the query far from every node found %v", b)
	}
	p, q := geom.Point{X: 40, Y: 40}, geom.Point{X: 70, Y: 30}
	c, wantC = m.WithinRangeAppend(c, p, 50, None), bruteWithinRange(m, p, 50, None)
	check("WithinRangeAppend into c")
	b, wantB = m.HeadsWithinRangeAppend(b[:0], q, 40, None), bruteHeadsWithinRange(m, q, 40, None)
	check("HeadsWithinRangeAppend into b")
	c, wantC = m.HeadsWithinDisk(c[:0], q, 45), bruteHeadsWithinRange(m, q, 45, None)
	check("HeadsWithinDisk into c")
	b, wantB = m.WithinRangeAppend(b[:0], p, 30, None), bruteWithinRange(m, p, 30, None)
	check("WithinRangeAppend into b")
	if got := m.Broadcast(sender, a); !slices.Equal(got, wantA) {
		t.Fatalf("Broadcast(%d, a) delivered %v, want %v", sender, got, wantA)
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

// TestRegionEpochContract churns ordinary and wild nodes through Place,
// Remove, Touch, TouchLinks and SetBlackout, and checks RegionEpoch's
// contract in both views after every step, from ordinary and wild points
// at radii from 0 to +Inf: a change at a node within dist of p, at its
// old or its new position, raises the full view of RegionEpoch(p, dist),
// and the associate view too unless it is a TouchLinks, which moves no
// associate view anywhere; nothing lowers either; and for a wild p they
// are Epoch() and AssocEpoch(). The radius 3e10 spans a ring of 2·10⁹
// cells, which only the ring-or-scan rule reads in bounded time.
func TestRegionEpochContract(t *testing.T) {
	const cellSize, n = 30, 40
	m := newTestMedium(t, Params{MaxRange: 100, DiffusionSpeed: 100, CellSize: cellSize})
	src := rng.New(5)
	wild := wildPoints(cellSize)
	point := func() geom.Point {
		switch src.Intn(5) {
		case 0:
			return wild[src.Intn(len(wild))]
		case 1:
			return geom.Point{X: float64(src.Intn(9)-4) * cellSize, Y: float64(src.Intn(9)-4) * cellSize}
		}
		return geom.Point{X: src.Range(-200, 200), Y: src.Range(-200, 200)}
	}
	ordinary := []geom.Point{{X: 0, Y: 0}, {X: cellSize, Y: -2 * cellSize}, {X: 17, Y: 101}}
	apexes := append(ordinary, wild...)
	radii := []float64{0, 10, cellSize, 45, 100, 1e6, 3e10, 1e300, math.Inf(1)}
	type views struct{ full, assoc uint64 }
	region := func(p geom.Point, d float64) views {
		full, assoc := m.RegionEpoch(p, d)
		return views{full, assoc}
	}
	before := make([]views, len(apexes)*len(radii))
	for step := 0; step < 400; step++ {
		for i, p := range apexes {
			for j, d := range radii {
				before[i*len(radii)+j] = region(p, d)
			}
		}
		epoch, assoc := m.Epoch(), m.AssocEpoch()
		id := NodeID(src.Intn(n))
		var at []geom.Point // where the change happens
		if m.Alive(id) {
			at = append(at, m.pos[id])
		}
		op := src.Intn(6)
		switch op {
		case 0, 1:
			q := point()
			m.Place(id, q)
			at = append(at, q)
		case 2:
			m.Remove(id)
		case 3:
			m.Touch(id)
		case 4:
			m.SetBlackout(id, !m.InBlackout(id))
		case 5:
			m.TouchLinks(id)
		}
		if op == 5 && m.AssocEpoch() != assoc {
			t.Fatalf("step %d: TouchLinks(%d) moved AssocEpoch from %d to %d", step, id, assoc, m.AssocEpoch())
		}
		for i, p := range apexes {
			for j, d := range radii {
				got, was := region(p, d), before[i*len(radii)+j]
				near := slices.ContainsFunc(at, func(q geom.Point) bool { return q.Dist2(p) <= d*d })
				switch {
				case got.full < was.full || got.assoc < was.assoc:
					t.Fatalf("step %d op %d: RegionEpoch(%v, %v) fell from %v to %v", step, op, p, d, was, got)
				case i >= len(ordinary) && got != views{m.Epoch(), m.AssocEpoch()}:
					t.Fatalf("step %d op %d: RegionEpoch(%v, %v) = %v for a wild point, want Epoch(), AssocEpoch() = %d, %d", step, op, p, d, got, m.Epoch(), m.AssocEpoch())
				case m.Epoch() != epoch && near && got.full == was.full:
					t.Fatalf("step %d op %d: node %d changed at %v, within %v of %v, but RegionEpoch stayed %d", step, op, id, at, d, p, got.full)
				case op != 5 && m.Epoch() != epoch && near && got.assoc == was.assoc:
					t.Fatalf("step %d op %d: node %d changed at %v, within %v of %v, but the associate view stayed %d", step, op, id, at, d, p, got.assoc)
				case op == 5 && got.assoc != was.assoc:
					t.Fatalf("step %d: TouchLinks(%d) moved the associate view of RegionEpoch(%v, %v) from %d to %d", step, id, p, d, was.assoc, got.assoc)
				}
			}
		}
	}
}
