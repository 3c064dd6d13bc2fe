package check

import (
	"math"

	"gs3/internal/geom"
)

// grid buckets points into square cells of a fixed side. Its slots
// number the points cell by cell, ascending within each cell, and an
// open-addressing table finds a cell by its integer coordinates, so a
// grid costs O(points) memory however far apart the points lie. The
// points no cell can hold (see keyOf) take the slots after the last
// cell's, in ascending order: they are the grid's wild points.
type grid struct {
	side float64
	// keys[c] is the coordinates of occupied cell c, which holds slots
	// start[c]:start[c+1]; the wild slots run from start[len(keys)] to
	// the end.
	keys  []cellKey
	start []int32
	// items[s] is the caller's index of the point in slot s, pts[s] its
	// position.
	items []int32
	pts   []geom.Point
	// table holds c+1 for occupied cell c at its hash position, 0 in
	// empty entries; its length is a power of two at least twice the
	// number of points, so probes stay short and always end.
	table []int32
	shift uint
}

type cellKey struct{ x, y int32 }

// maxCell bounds the cell coordinates a grid keys. Within it, dividing
// a coordinate by the side errs by under 2⁻²² of a cell, so a point
// lands in its true cell or, that close to an edge, in the cell across
// it; the scans' margins of 2⁻¹⁹ of a cell absorb the error.
const maxCell = 1 << 30

// newGrid buckets the points pos into cells of the given side; the
// caller's index of pos[i] is i.
func newGrid(side float64, pos []geom.Point) grid {
	n := len(pos)
	size, shift := 1, uint(64)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	g := grid{
		side:  side,
		items: make([]int32, n),
		pts:   make([]geom.Point, n),
		table: make([]int32, size),
		shift: shift,
	}
	cellOf := make([]int32, n)
	for i, p := range pos {
		k, ok := g.keyOf(p)
		if !ok {
			cellOf[i] = -1
			continue
		}
		e := g.hash(k)
		for g.table[e] != 0 && g.keys[g.table[e]-1] != k {
			e = (e + 1) & (size - 1)
		}
		if g.table[e] == 0 {
			g.keys = append(g.keys, k)
			g.table[e] = int32(len(g.keys))
		}
		cellOf[i] = g.table[e] - 1
	}
	// Counting layout: cell c's slots start after every earlier cell's,
	// the wild slots after all of them.
	g.start = make([]int32, len(g.keys)+3)
	for _, c := range cellOf {
		if c < 0 {
			c = int32(len(g.keys))
		}
		g.start[c+2]++
	}
	for c := 2; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	for i, c := range cellOf {
		if c < 0 {
			c = int32(len(g.keys))
		}
		s := g.start[c+1]
		g.start[c+1]++
		g.items[s], g.pts[s] = int32(i), pos[i]
	}
	g.start = g.start[:len(g.keys)+1]
	return g
}

// keyOf returns the cell holding p. It fails for a wild point: one with
// a non-finite coordinate or more than maxCell cells from the origin.
func (g *grid) keyOf(p geom.Point) (cellKey, bool) {
	x, y := math.Floor(p.X/g.side), math.Floor(p.Y/g.side)
	if !(math.Abs(x) <= maxCell && math.Abs(y) <= maxCell) {
		return cellKey{}, false
	}
	return cellKey{int32(x), int32(y)}, true
}

func (g *grid) hash(k cellKey) int {
	return int((uint64(uint32(k.x))<<32 | uint64(uint32(k.y))) * 0x9e3779b97f4a7c15 >> g.shift)
}

// find returns the cell with coordinates k, or -1 if no point lies in
// it.
func (g *grid) find(k cellKey) int32 {
	for e := g.hash(k); ; e = (e + 1) & (len(g.table) - 1) {
		if c := g.table[e] - 1; c < 0 || g.keys[c] == k {
			return c
		}
	}
}

// wild returns the first wild slot; the wild slots run from it to the
// end.
func (g *grid) wild() int32 {
	return g.start[len(g.keys)]
}

// cellRange returns the bounds, inclusive, of the cell coordinates that
// can hold a point within dist of p, widened by 2⁻¹⁹ of a cell on each
// side so that rounding (see maxCell) cannot leave such a point out. It
// fails when p is wild, or when the range has more cells than the grid
// has occupied cells: then a scan of every cell costs less.
func (g *grid) cellRange(p geom.Point, dist float64) (x0, y0, x1, y1 int, ok bool) {
	if _, ok := g.keyOf(p); !ok {
		return 0, 0, 0, 0, false
	}
	fx, fy, r := p.X/g.side, p.Y/g.side, dist/g.side+0x1p-19
	lx, hx := math.Floor(fx-r), math.Floor(fx+r)
	ly, hy := math.Floor(fy-r), math.Floor(fy+r)
	if !((hx-lx+1)*(hy-ly+1) <= float64(len(g.keys))) {
		return 0, 0, 0, 0, false
	}
	return int(lx), int(ly), int(hx), int(hy), true
}
