package check

import (
	"gs3/internal/geom"
	"gs3/internal/spatial"
)

// grid buckets points into square cells of a fixed side, numbered by a
// spatial.Table. Its slots number the points cell by cell, ascending
// within each cell. The points no cell can hold (spatial.KeyOf) take the
// slots after the last cell's, in ascending order: they are the grid's
// wild points.
type grid struct {
	side  float64
	cells spatial.Table
	// Cell c holds slots start[c]:start[c+1]; the wild slots run from
	// wild to the end.
	start []int32
	wild  int32
	// items[s] is the caller's index of the point in slot s, pts[s] its
	// position.
	items []int32
	pts   []geom.Point
}

// newGrid buckets the points pos into cells of the given side; the
// caller's index of pos[i] is i.
func newGrid(side float64, pos []geom.Point) grid {
	n := len(pos)
	g := grid{side: side, items: make([]int32, n), pts: make([]geom.Point, n)}
	cellOf := make([]int32, n)
	for i, p := range pos {
		cellOf[i] = -1
		if k, ok := spatial.KeyOf(p, side); ok {
			cellOf[i] = g.cells.Insert(k)
		}
	}
	// Counting layout: cell c's slots start after every earlier cell's,
	// the wild slots after all of them.
	nc := int32(len(g.cells.Keys()))
	g.start = make([]int32, nc+3)
	for i, c := range cellOf {
		if c < 0 {
			cellOf[i] = nc
		}
		g.start[cellOf[i]+2]++
	}
	for c := 2; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	for i, c := range cellOf {
		s := g.start[c+1]
		g.start[c+1]++
		g.items[s], g.pts[s] = int32(i), pos[i]
	}
	g.start, g.wild = g.start[:nc+1], g.start[nc]
	return g
}
