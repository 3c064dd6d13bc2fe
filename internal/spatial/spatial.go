// Package spatial is the grid behind the radio medium's and the
// invariant checker's spatial indexes: one rule for the cell that holds
// a point, one for the cells a disk can reach, and one table that lists
// a rectangle's cells. A point is wild when a coordinate is not finite
// or lies more than MaxCell cells from the origin: no cell holds it, so
// callers keep it aside and test it in every query.
package spatial

import (
	"math"
	"math/bits"

	"gs3/internal/geom"
)

// Key is a cell's integer coordinates: cell (X, Y) of side s covers
// [X·s, (X+1)·s) × [Y·s, (Y+1)·s).
type Key struct{ X, Y int32 }

// MaxCell bounds the coordinates of a key. Within it, dividing a
// coordinate by the side errs by under 2⁻²² of a cell, so a point lands
// in its true cell or, that close to an edge, in the cell across it; the
// 2⁻¹⁹-cell margin of Bounds absorbs the error.
const MaxCell = 1 << 30

// KeyOf returns the key of the cell of the given side that holds p. It
// fails for a wild p.
func KeyOf(p geom.Point, side float64) (Key, bool) {
	x, y := math.Floor(p.X/side), math.Floor(p.Y/side)
	if !(math.Abs(x) <= MaxCell && math.Abs(y) <= MaxCell) {
		return Key{}, false
	}
	return Key{int32(x), int32(y)}, true
}

// Bounds returns the key rectangle lo..hi, inclusive, of the cells that
// can hold a point within dist of p, widened by 2⁻¹⁹ of a cell on each
// side so that rounding (see MaxCell) cannot leave such a point out.
func Bounds(p geom.Point, dist, side float64) (lo, hi Key) {
	return square(p, side, p.X/side, p.Y/side, dist/side+0x1p-19)
}

// Ring returns the key rectangle of the cells at most ⌈dist/side⌉ cells
// from p's on either axis: for reals a and b ≥ 0, ⌊a+b⌋ − ⌊a⌋ ≤ ⌈b⌉.
func Ring(p geom.Point, dist, side float64) (lo, hi Key) {
	k, _ := KeyOf(p, side)
	return square(p, side, float64(k.X), float64(k.Y), math.Ceil(dist/side))
}

// square returns the keys ⌊x−r⌋..⌊x+r⌋ × ⌊y−r⌋..⌊y+r⌋ clamped to ±MaxCell,
// or all of them when p is wild or r is NaN: that query may reach any.
func square(p geom.Point, side, x, y, r float64) (lo, hi Key) {
	if _, ok := KeyOf(p, side); !ok || math.IsNaN(r) {
		return Key{-MaxCell, -MaxCell}, Key{MaxCell, MaxCell}
	}
	return Key{cell(x - r), cell(y - r)}, Key{cell(x + r), cell(y + r)}
}

// cell returns ⌊x⌋ clamped to ±MaxCell, for an x that is not NaN.
func cell(x float64) int32 {
	return int32(min(max(math.Floor(x), -MaxCell), MaxCell))
}

// Table numbers the cells of a grid 0, 1, 2, … as they are inserted and
// finds a cell by its key through open addressing, in O(cells) memory
// however far apart the cells lie. The zero Table is empty.
type Table struct {
	keys []Key // keys[c] is the key of cell c
	// slots holds c+1 for cell c at its hash position, 0 when empty; its
	// length is a power of two at least twice the number of cells, so
	// probes stay short and always end.
	slots []int32
	shift uint
}

// Keys returns the cells' keys by cell number: read-only.
func (t *Table) Keys() []Key { return t.keys }

// Find returns the number of the cell with key k, or -1 if there is none.
func (t *Table) Find(k Key) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	return t.slots[t.slot(k)] - 1
}

// Insert returns the number of the cell with key k, added if need be.
func (t *Table) Insert(k Key) int32 {
	if c := t.Find(k); c >= 0 {
		return c
	}
	if n := 2 * (len(t.keys) + 1); n > len(t.slots) {
		n = max(16, 2*len(t.slots))
		t.slots, t.shift = make([]int32, n), uint(64-bits.TrailingZeros(uint(n)))
		for c, k := range t.keys {
			t.slots[t.slot(k)] = int32(c + 1)
		}
	}
	t.keys = append(t.keys, k)
	t.slots[t.slot(k)] = int32(len(t.keys))
	return int32(len(t.keys) - 1)
}

// slot returns the slot that holds k, or the empty slot that ends k's
// probe sequence.
func (t *Table) slot(k Key) int {
	s := int((uint64(uint32(k.X))<<32 | uint64(uint32(k.Y))) * 0x9e3779b97f4a7c15 >> t.shift)
	for mask := len(t.slots) - 1; ; s = (s + 1) & mask {
		if c := t.slots[s] - 1; c < 0 || t.keys[c] == k {
			return s
		}
	}
}

// Cells appends to dst the numbers of the cells whose keys lie in the
// rectangle lo..hi, inclusive, within ±MaxCell. It probes the keys row by
// row from lo or, when there are more of them than cells, scans the
// cells in number order, so it never costs more than a scan.
func (t *Table) Cells(dst []int32, lo, hi Key) []int32 {
	if (int64(hi.X)-int64(lo.X)+1)*(int64(hi.Y)-int64(lo.Y)+1) > int64(len(t.keys)) {
		for c, k := range t.keys {
			if lo.X <= k.X && k.X <= hi.X && lo.Y <= k.Y && k.Y <= hi.Y {
				dst = append(dst, int32(c))
			}
		}
		return dst
	}
	for y := lo.Y; y <= hi.Y; y++ {
		for x := lo.X; x <= hi.X; x++ {
			if c := t.Find(Key{x, y}); c >= 0 {
				dst = append(dst, c)
			}
		}
	}
	return dst
}
