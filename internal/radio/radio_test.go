package radio

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"gs3/internal/fault"
	"gs3/internal/geom"
	"gs3/internal/rng"
)

func newTestMedium(t *testing.T, p Params) *Medium {
	t.Helper()
	m, err := NewMedium(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func defaultParams() Params {
	return Params{MaxRange: 100, DiffusionSpeed: 100, PerMessageOverhead: 0.01}
}

// broadcast sends from sender to its whole audience over radius, the
// way HEAD_ORG's org broadcast does.
func broadcast(m *Medium, sender NodeID, radius float64) []NodeID {
	return m.Broadcast(sender, m.Audience(nil, sender, radius))
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"valid", defaultParams(), true},
		{"zero range", Params{MaxRange: 0, DiffusionSpeed: 1}, false},
		{"zero speed", Params{MaxRange: 1, DiffusionSpeed: 0}, false},
		{"negative overhead", Params{MaxRange: 1, DiffusionSpeed: 1, PerMessageOverhead: -1}, false},
		{"NaN speed", Params{MaxRange: 1, DiffusionSpeed: math.NaN()}, false},
		{"NaN overhead", Params{MaxRange: 1, DiffusionSpeed: 1, PerMessageOverhead: math.NaN()}, false},
		{"infinite overhead", Params{MaxRange: 1, DiffusionSpeed: 1, PerMessageOverhead: math.Inf(1)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, ok = %v", err, tt.ok)
			}
		})
	}
}

func TestPlaceAndPosition(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{X: 3, Y: 4})
	p, ok := m.Position(1)
	if !ok || p != (geom.Point{X: 3, Y: 4}) {
		t.Errorf("position = %v ok=%v", p, ok)
	}
	if !m.Alive(1) || m.Alive(2) {
		t.Error("alive flags wrong")
	}
	if m.Count() != 1 {
		t.Errorf("count = %d", m.Count())
	}
}

func TestMoveUpdatesGrid(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{X: 0, Y: 0})
	m.Place(1, geom.Point{X: 500, Y: 500})
	near := m.WithinRangeAppend(nil, geom.Point{}, 50, None)
	if len(near) != 0 {
		t.Errorf("stale grid entry: %v", near)
	}
	far := m.WithinRangeAppend(nil, geom.Point{X: 500, Y: 500}, 50, None)
	if len(far) != 1 || far[0] != 1 {
		t.Errorf("moved node not found: %v", far)
	}
}

func TestRemove(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{})
	m.Remove(1)
	if m.Alive(1) || m.Count() != 0 {
		t.Error("node survived Remove")
	}
	if got := m.WithinRangeAppend(nil, geom.Point{}, 10, None); len(got) != 0 {
		t.Errorf("removed node still in grid: %v", got)
	}
	m.Remove(99) // absent: no-op, no panic
}

func TestWithinRange(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{X: 10, Y: 0})
	m.Place(2, geom.Point{X: 0, Y: 20})
	m.Place(3, geom.Point{X: 100, Y: 100})
	got := m.WithinRangeAppend(nil, geom.Point{}, 25, None)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("WithinRangeAppend = %v", got)
	}
}

func TestWithinRangeExclude(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{})
	m.Place(2, geom.Point{X: 1, Y: 1})
	got := m.WithinRangeAppend(nil, geom.Point{}, 10, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("WithinRangeAppend with exclude = %v", got)
	}
}

func TestWithinRangeBoundaryInclusive(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{X: 25, Y: 0})
	if got := m.WithinRangeAppend(nil, geom.Point{}, 25, None); len(got) != 1 {
		t.Errorf("boundary node excluded: %v", got)
	}
}

func TestWithinRangeSortedDeterministic(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	for id := NodeID(20); id >= 1; id-- {
		m.Place(id, geom.Point{X: float64(id), Y: 0})
	}
	got := m.WithinRangeAppend(nil, geom.Point{}, 100, None)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestWithinRangeLargerThanCell(t *testing.T) {
	p := defaultParams()
	p.CellSize = 5 // queries span many buckets
	m := newTestMedium(t, p)
	m.Place(1, geom.Point{X: 80, Y: -60})
	if got := m.WithinRangeAppend(nil, geom.Point{}, 100, None); len(got) != 1 {
		t.Errorf("cross-bucket query missed node: %v", got)
	}
}

func TestDelayModel(t *testing.T) {
	m := newTestMedium(t, defaultParams()) // speed 100, overhead 0.01
	if got := m.Delay(100); math.Abs(got-1.01) > 1e-12 {
		t.Errorf("Delay(100) = %v", got)
	}
	if got := m.Delay(0); got != 0.01 {
		t.Errorf("Delay(0) = %v", got)
	}
}

func TestBroadcastReliable(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(0, geom.Point{})
	m.Place(1, geom.Point{X: 30, Y: 0})
	m.Place(2, geom.Point{X: 0, Y: 60})
	m.Place(3, geom.Point{X: 500, Y: 0})
	audience := m.Audience(nil, 0, 100)
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("Audience counted %+v", st)
	}
	got := slices.Clone(m.Broadcast(0, audience))
	if !slices.Equal(got, []NodeID{1, 2}) {
		t.Fatalf("receivers = %v", got)
	}
	if st, want := m.Stats(), (Stats{Broadcasts: 1, Deliveries: 2, RangeQueries: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	// A second broadcast over the same audience, as HEAD_ORG's HeadSet
	// broadcast is, reaches the same receivers and is credited the range
	// query it did not run.
	if again := m.Broadcast(0, audience); !slices.Equal(again, got) {
		t.Errorf("second broadcast reached %v, want %v", again, got)
	}
	if st, want := m.Stats(), (Stats{Broadcasts: 2, Deliveries: 4, RangeQueries: 2}); st != want {
		t.Errorf("stats after two broadcasts = %+v, want %+v", st, want)
	}
}

func TestBroadcastFromAbsentSender(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	if audience := m.Audience(nil, 9, 100); audience != nil {
		t.Errorf("absent sender's audience = %v", audience)
	}
	if got := m.Broadcast(9, []NodeID{1}); got != nil {
		t.Errorf("absent sender broadcast = %v", got)
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Errorf("absent sender counted %+v", st)
	}
}

// TestBroadcastLossStatistics checks that the fault layer's
// per-delivery loss drops each broadcast receiver independently.
func TestBroadcastLossStatistics(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	inj, err := fault.NewInjector(fault.Plan{Loss: 0.3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(inj)
	m.Place(0, geom.Point{})
	for id := NodeID(1); id <= 50; id++ {
		m.Place(id, geom.Point{X: float64(id), Y: 0})
	}
	delivered := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		delivered += len(broadcast(m, 0, 100))
	}
	frac := float64(delivered) / float64(rounds*50)
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("delivery fraction = %v, want ≈0.7", frac)
	}
	if st := m.Stats(); st.FaultDrops != uint64(rounds*50-delivered) {
		t.Errorf("FaultDrops = %d, want %d", st.FaultDrops, rounds*50-delivered)
	}
}

func TestUnicast(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{})
	m.Place(2, geom.Point{X: 50, Y: 0})
	delay, err := m.Unicast(1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(delay-m.Delay(50)) > 1e-12 {
		t.Errorf("delay = %v", delay)
	}
	if _, err := m.Unicast(1, 2, 10); err == nil {
		t.Error("out-of-range unicast accepted")
	}
	if _, err := m.Unicast(1, 9, 100); err == nil {
		t.Error("absent receiver accepted")
	}
	if _, err := m.Unicast(9, 1, 100); err == nil {
		t.Error("absent sender accepted")
	}
}

func TestDist(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{})
	m.Place(2, geom.Point{X: 3, Y: 4})
	if got := m.Dist(1, 2); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := m.Dist(1, 9); !math.IsInf(got, 1) {
		t.Errorf("Dist to absent = %v", got)
	}
}

func TestNegativeCoordinatesGrid(t *testing.T) {
	m := newTestMedium(t, defaultParams())
	m.Place(1, geom.Point{X: -250, Y: -310})
	got := m.WithinRangeAppend(nil, geom.Point{X: -255, Y: -305}, 20, None)
	if len(got) != 1 {
		t.Errorf("negative-coordinate node missed: %v", got)
	}
}

// TestStatsCountersListEveryField pins Stats.counters, the one list
// that Sub, Add and AddStats loop over, to the declaration: it must
// point at every field exactly once, so a counter added to Stats but
// not to the list fails here rather than going uncredited by replayed
// sweeps. With a distinct value in every field, 3s − s must then equal
// s + s.
func TestStatsCountersListEveryField(t *testing.T) {
	var s Stats
	list := s.counters()
	v := reflect.ValueOf(&s).Elem()
	if len(list) != v.NumField() {
		t.Fatalf("Stats has %d fields, its counter list %d", v.NumField(), len(list))
	}
	for i := 0; i < v.NumField(); i++ {
		n := 0
		for _, p := range list {
			if reflect.ValueOf(p).Pointer() == v.Field(i).UnsafeAddr() {
				n++
			}
		}
		if n != 1 {
			t.Errorf("Stats.%s is in the counter list %d times, want 1", v.Type().Field(i).Name, n)
		}
	}

	for i, p := range list {
		*p = uint64(i + 1)
	}
	var m Medium
	m.AddStats(s, 3)
	if got, want := m.Stats().Sub(s), s.Add(s); got != want {
		t.Errorf("AddStats(s, 3).Sub(s) = %+v, want s.Add(s) = %+v", got, want)
	}
}
