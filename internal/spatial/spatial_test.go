package spatial

import (
	"math"
	"slices"
	"testing"

	"gs3/internal/geom"
	"gs3/internal/rng"
)

// TestKeyOfWildRule checks the cells KeyOf gives and refuses: a cell's
// lower edges belong to it, and a point with a non-finite coordinate or
// more than MaxCell cells out is wild.
func TestKeyOfWildRule(t *testing.T) {
	for _, c := range []struct {
		p    geom.Point
		want Key
		ok   bool
	}{
		{geom.Point{X: 0, Y: 0}, Key{0, 0}, true},
		{geom.Point{X: 29.9, Y: -0.1}, Key{0, -1}, true},
		{geom.Point{X: 30, Y: -30}, Key{1, -1}, true},
		{geom.Point{X: MaxCell * 30, Y: -MaxCell * 30}, Key{MaxCell, -MaxCell}, true},
		{geom.Point{X: (MaxCell + 1) * 30, Y: 0}, Key{}, false},
		{geom.Point{X: 0, Y: -(MaxCell + 5) * 30}, Key{}, false},
		{geom.Point{X: math.NaN(), Y: 0}, Key{}, false},
		{geom.Point{X: 0, Y: math.Inf(1)}, Key{}, false},
		{geom.Point{X: -1e300, Y: 0}, Key{}, false},
	} {
		if got, ok := KeyOf(c.p, 30); got != c.want || ok != c.ok {
			t.Errorf("KeyOf(%v, 30) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
}

// TestBoundsAndRing checks the rectangles of a few disks, and that a
// wild point or an unbounded radius reaches every keyed cell.
func TestBoundsAndRing(t *testing.T) {
	all := [2]Key{{-MaxCell, -MaxCell}, {MaxCell, MaxCell}}
	for _, c := range []struct {
		p      geom.Point
		dist   float64
		bounds [2]Key
		ring   [2]Key
		name   string
	}{
		{geom.Point{X: 45, Y: 45}, 10, [2]Key{{1, 1}, {1, 1}}, [2]Key{{0, 0}, {2, 2}}, "inside a cell"},
		{geom.Point{X: 30, Y: 15}, 0, [2]Key{{0, 0}, {1, 0}}, [2]Key{{1, 0}, {1, 0}}, "on an edge"},
		{geom.Point{X: 0, Y: 0}, 60, [2]Key{{-3, -3}, {2, 2}}, [2]Key{{-2, -2}, {2, 2}}, "two cells wide"},
		{geom.Point{X: 0, Y: 0}, math.Inf(1), all, all, "infinite"},
		{geom.Point{X: 0, Y: 0}, math.NaN(), all, all, "NaN"},
		{geom.Point{X: 0, Y: 0}, 1e300, all, all, "1e300"},
		{geom.Point{X: math.NaN(), Y: 0}, 10, all, all, "wild"},
		{geom.Point{X: 0, Y: 1e300}, 10, all, all, "far"},
	} {
		if lo, hi := Bounds(c.p, c.dist, 30); [2]Key{lo, hi} != c.bounds {
			t.Errorf("%s: Bounds(%v, %v) = %v..%v, want %v", c.name, c.p, c.dist, lo, hi, c.bounds)
		}
		if lo, hi := Ring(c.p, c.dist, 30); [2]Key{lo, hi} != c.ring {
			t.Errorf("%s: Ring(%v, %v) = %v..%v, want %v", c.name, c.p, c.dist, lo, hi, c.ring)
		}
	}
}

// TestTableMatchesBruteForce grows a table cell by cell and checks, as
// it grows, that Find and Insert agree with a list of the inserted keys,
// and that Cells lists a rectangle's cells as a filter of that list
// does: in row order when it probes, in number order when it scans.
func TestTableMatchesBruteForce(t *testing.T) {
	src := rng.New(3)
	var tab Table
	var keys []Key
	for i := 0; i < 600; i++ {
		k := Key{int32(src.Intn(41) - 20), int32(src.Intn(41) - 20)}
		if i%50 == 0 {
			k = Key{MaxCell - int32(src.Intn(3)), -MaxCell + int32(src.Intn(3))}
		}
		want := int32(slices.Index(keys, k))
		if got := tab.Find(k); got != want {
			t.Fatalf("Find(%v) = %d, want %d", k, got, want)
		}
		if want < 0 {
			want = int32(len(keys))
			keys = append(keys, k)
		}
		if got := tab.Insert(k); got != want {
			t.Fatalf("Insert(%v) = %d, want %d", k, got, want)
		}
		if !slices.Equal(tab.Keys(), keys) {
			t.Fatalf("Keys() = %v, want %v", tab.Keys(), keys)
		}
		x, y := int32(src.Intn(45)-22), int32(src.Intn(45)-22)
		lo, hi := Key{x, y}, Key{x + int32(src.Intn(12)), y + int32(src.Intn(12))}
		if i%7 == 0 {
			lo, hi = Key{-MaxCell, -MaxCell}, Key{MaxCell, MaxCell}
		}
		var want2 []int32
		for c, k := range keys {
			if lo.X <= k.X && k.X <= hi.X && lo.Y <= k.Y && k.Y <= hi.Y {
				want2 = append(want2, int32(c))
			}
		}
		got := tab.Cells([]int32{-1}, lo, hi)
		if (int64(hi.X)-int64(lo.X)+1)*(int64(hi.Y)-int64(lo.Y)+1) <= int64(len(keys)) {
			slices.SortFunc(want2, func(a, b int32) int {
				return int(keys[a].Y-keys[b].Y)*1000 + int(keys[a].X-keys[b].X)
			})
		}
		if got[0] != -1 || !slices.Equal(got[1:], want2) {
			t.Fatalf("Cells(%v, %v) = %v, want %v after -1", lo, hi, got, want2)
		}
	}
}
