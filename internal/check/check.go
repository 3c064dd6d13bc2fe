// Package check machine-verifies the GS³ invariants and fixpoints on a
// network snapshot: SI = I₁ ∧ I₂ ∧ I₃ (Theorem 1), SF = F₁ ∧ F₂ ∧ F₃ ∧
// F₄ (Theorem 2), and their GS³-D relaxations DI/DF (Theorems 5 and 6).
//
// Every predicate returns a list of violations rather than a bare bool,
// so tests and the bench harness can report exactly which node broke
// which clause.
package check

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/spatial"
)

// Violation is one broken invariant clause.
type Violation struct {
	Clause string       // e.g. "I2.1"
	Node   radio.NodeID // offending node (radio.None for global clauses)
	Detail string
}

// String formats v as clause@node: detail.
func (v Violation) String() string {
	return fmt.Sprintf("%s@%d: %s", v.Clause, v.Node, v.Detail)
}

// Mode selects the static (SI/SF) or dynamic (DI/DF) variants of the
// clauses: the dynamic ones relax the hexagon bounds for cells whose
// ⟨ICC, ICP⟩ differs from a neighbor's and raise the children bound
// from 3 to 5.
type Mode int

// Checking modes.
const (
	Static Mode = iota + 1
	Dynamic
)

// Result aggregates the violations of one full check.
type Result struct {
	Violations []Violation
}

// OK reports whether no clause was violated.
func (r Result) OK() bool { return len(r.Violations) == 0 }

func (r *Result) addf(clause string, node radio.NodeID, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Clause: clause, Node: node, Detail: fmt.Sprintf(format, args...),
	})
}

// index holds what the clauses look up in one snapshot: the ID→position
// table, the heads and their member lists, each head's boundary flag,
// and a grid of head positions that answers "which heads lie within d
// of p" in output-sensitive time, so the neighbor-band clauses cost
// O(heads) overall instead of O(heads²).
//
// The per-node fields the clauses scan — position, status, blackout,
// chosen head — are copied once into dense arrays, in the struct-of-
// arrays layout of core's node store, so a pass over all nodes reads
// a few bytes per node rather than a whole view; views are otherwise
// read by pointer into the snapshot, never copied. The simulator
// allocates node IDs densely from 0 (see radio.NodeID), so the
// ID→position table is a flat slice, and the member lists are one
// counting-sorted backing array: building an index costs a fixed
// handful of allocations, not a few per node.
type index struct {
	snap  core.Snapshot
	nodes []core.NodeView // snap.Nodes
	// byID maps a node ID to its position in nodes (-1 if absent). It
	// is nil when the IDs are too sparse for a table of O(len(nodes)):
	// then nodeIdx binary-searches nodes, which ascend by ID.
	byID []int32

	// Dense per-node copies, indexed by position in nodes: position,
	// status, blackout flag, and for an associate its Head resolved:
	// the head's ordinal, headNotHead if Head is in the snapshot but not
	// a head, headAbsent if it is not in the snapshot. headOf is -1 for
	// every other node.
	pos    []geom.Point
	status []core.Status
	down   []bool
	headOf []int32

	// heads[o] is the position in nodes of the head with ordinal o;
	// ordinals ascend with ID, because nodes do. headOrd maps a position
	// back to its ordinal, -1 for non-heads.
	heads   []int32
	headOrd []int32

	// The associates of head o are members[memberOff[o]:memberOff[o+1]],
	// positions in nodes, ascending by ID within each head (the counting
	// sort is stable). Associates whose Head is not a live head are in no
	// list: the membership clauses report them.
	memberOff []int32
	members   []int32

	// boundary[o] reports whether head o is a boundary cell head (see
	// checkI2, which computes it and runs before checkI3 reads it).
	boundary []bool

	// headGrid buckets head ordinals by position in cells as wide as the
	// neighbor band; nearBuf is headsNear's result buffer, cellBuf its
	// buffer of cell numbers.
	headGrid grid
	nearBuf  []int32
	cellBuf  []int32

	// mark/markGen form an O(1)-reset visited set over head ordinals for
	// the tree walks: mark[o] == markGen means head o is visited in the
	// current walk.
	mark    []int32
	markGen int32
}

// headOf values of associates whose Head is not a live head.
const (
	headNotHead = -2
	headAbsent  = -3
)

func newIndex(s core.Snapshot) *index {
	nodes := s.Nodes
	n := len(nodes)
	maxID := -1
	nHeads := 0
	for i := range nodes {
		maxID = max(maxID, int(nodes[i].ID))
		if nodes[i].Status.IsHeadRole() {
			nHeads++
		}
	}
	ix := &index{
		snap:     s,
		nodes:    nodes,
		pos:      make([]geom.Point, n),
		status:   make([]core.Status, n),
		down:     make([]bool, n),
		headOf:   make([]int32, n),
		heads:    make([]int32, 0, nHeads),
		headOrd:  make([]int32, n),
		boundary: make([]bool, nHeads),
		mark:     make([]int32, nHeads),
	}
	// A snapshot of the simulator holds at least a quarter of the IDs
	// up to its largest unless three quarters of its nodes have died; a
	// decoded one may hold a single node with ID 2³¹−1.
	if maxID < 4*n {
		ix.byID = make([]int32, maxID+1)
		for i := range ix.byID {
			ix.byID[i] = -1
		}
	}
	headPos := make([]geom.Point, 0, nHeads)
	for j := range nodes {
		v := &nodes[j]
		if ix.byID != nil {
			ix.byID[v.ID] = int32(j)
		}
		ix.pos[j], ix.status[j], ix.down[j] = v.Pos, v.Status, v.Blackout
		ix.headOf[j] = int32(v.Head) // resolved below, once byID is complete
		ix.headOrd[j] = -1
		if v.Status.IsHeadRole() {
			ix.headOrd[j] = int32(len(ix.heads))
			ix.heads = append(ix.heads, int32(j))
			headPos = append(headPos, v.Pos)
		}
	}
	ix.headGrid = newGrid(s.Config.NeighborDistMax()+1e-9, headPos)

	// Resolve associates' heads and lay the members out by counting.
	ix.memberOff = make([]int32, nHeads+1)
	for j, h := range ix.headOf {
		ix.headOf[j] = -1
		if ix.status[j] != core.StatusAssociate {
			continue
		}
		switch hj := ix.nodeIdx(radio.NodeID(h)); {
		case hj < 0:
			ix.headOf[j] = headAbsent
		case ix.headOrd[hj] < 0:
			ix.headOf[j] = headNotHead
		default:
			ix.headOf[j] = ix.headOrd[hj]
			ix.memberOff[ix.headOrd[hj]+1]++
		}
	}
	for i := 1; i <= nHeads; i++ {
		ix.memberOff[i] += ix.memberOff[i-1]
	}
	ix.members = make([]int32, ix.memberOff[nHeads])
	cursor := slices.Clone(ix.memberOff[:nHeads])
	for j, ho := range ix.headOf {
		if ho >= 0 {
			ix.members[cursor[ho]] = int32(j)
			cursor[ho]++
		}
	}
	return ix
}

// nodeIdx returns the position of id in nodes, or -1.
func (ix *index) nodeIdx(id radio.NodeID) int32 {
	if ix.byID == nil {
		j, ok := slices.BinarySearchFunc(ix.nodes, id, func(v core.NodeView, id radio.NodeID) int {
			return cmp.Compare(v.ID, id)
		})
		if !ok {
			return -1
		}
		return int32(j)
	}
	if id < 0 || int(id) >= len(ix.byID) {
		return -1
	}
	return ix.byID[id]
}

// view returns the snapshot view of id, or nil if id is absent.
func (ix *index) view(id radio.NodeID) *core.NodeView {
	if j := ix.nodeIdx(id); j >= 0 {
		return &ix.nodes[j]
	}
	return nil
}

// head returns the view of the head with ordinal o.
func (ix *index) head(o int32) *core.NodeView {
	return &ix.nodes[ix.heads[o]]
}

// membersOf returns the positions in nodes of the associates of the
// head with ordinal o, ascending. The slice aliases the index's backing
// array: read-only.
func (ix *index) membersOf(o int) []int32 {
	return ix.members[ix.memberOff[o]:ix.memberOff[o+1]]
}

// headsNear returns the ordinals of all heads within dist of p, in no
// particular order. The slice is the index's scratch buffer, valid until
// the next headsNear call. A head exactly at p (e.g. the query head
// itself) is included. The scan reads the wild heads and the cells that
// can hold such a head (spatial.Bounds), listed by spatial.Table.Cells,
// so a query never costs more than a scan of every head, however far it
// reaches.
func (ix *index) headsNear(p geom.Point, dist float64) []int32 {
	g := &ix.headGrid
	r2 := dist * dist
	ix.nearBuf = ix.nearBuf[:0]
	lo, hi := spatial.Bounds(p, dist, g.side)
	ix.cellBuf = g.cells.Cells(ix.cellBuf[:0], lo, hi)
	for _, c := range ix.cellBuf {
		ix.appendNear(g.start[c], g.start[c+1], p, r2)
	}
	ix.appendNear(g.wild, int32(len(g.pts)), p, r2)
	return ix.nearBuf
}

// appendNear adds to nearBuf the heads of head-grid slots lo:hi within
// squared distance r2 of p.
func (ix *index) appendNear(lo, hi int32, p geom.Point, r2 float64) {
	g := &ix.headGrid
	for s := lo; s < hi; s++ {
		if g.pts[s].Dist2(p) <= r2 {
			ix.nearBuf = append(ix.nearBuf, g.items[s])
		}
	}
}

// occluded reports whether an obstacle blocks the line of sight between
// two positions in this snapshot. With no obstacles it is constant
// false, so obstacle-free checks behave exactly as before.
func (ix *index) occluded(a, b geom.Point) bool {
	return len(ix.snap.Obstacles) != 0 && geom.AnyOccludes(ix.snap.Obstacles, a, b)
}

// closerHead returns the ordinal of the lowest-ID head that an
// associate at p can hear — up, and in sight — and that is closer to p
// than its chosen head, the one with ordinal own at distance chosen, by
// more than 1e-9; with that head's distance. It returns -1 if there is
// none. Any such head lies within chosen of p, so the grid query bounds
// the scan.
func (ix *index) closerHead(p geom.Point, own int32, chosen float64) (int32, float64) {
	best, bestD := int32(-1), 0.0
	for _, oi := range ix.headsNear(p, chosen) {
		if oi == own || best >= 0 && oi > best {
			continue
		}
		oj := ix.heads[oi]
		if d := p.Dist(ix.pos[oj]); d < chosen-1e-9 && !ix.down[oj] && !ix.occluded(p, ix.pos[oj]) {
			best, bestD = oi, d
		}
	}
	return best, bestD
}

// Invariant checks SI (mode Static) or DI (mode Dynamic) on the
// snapshot.
func Invariant(s core.Snapshot, mode Mode) Result {
	ix := newIndex(s)
	var r Result
	invariantOn(ix, mode, &r)
	return r
}

// invariantOn runs the invariant clauses against an existing index, so
// Fixpoint shares one index build with the fixpoint clauses.
func invariantOn(ix *index, mode Mode, r *Result) {
	checkI1(ix, r)
	checkI2(ix, mode, r)
	checkI3(ix, mode, r)
}

// checkI1 verifies connectivity: I₁.₁ (head-graph edges are physical
// edges) and I₁.₂ (the head graph is a tree rooted at the big node).
func checkI1(ix *index, r *Result) {
	cfg := ix.snap.Config
	reach := cfg.SearchRadius() + 2*cfg.Rt + 1e-9
	for _, j := range ix.heads {
		h := &ix.nodes[j]
		// I1.1: parent and children within local-coordination range,
		// hence physically connected (nodes can reach √3R+2Rt).
		if h.Parent != radio.None && h.Parent != h.ID {
			if pj := ix.nodeIdx(h.Parent); pj >= 0 && ix.headOrd[pj] >= 0 {
				if d := h.Pos.Dist(ix.pos[pj]); d > reach {
					r.addf("I1.1", h.ID, "parent %d at distance %.3g beyond range", h.Parent, d)
				}
			}
		}
	}

	if big := ix.view(ix.snap.BigID); big != nil &&
		!(big.Status.IsHeadRole() || big.Status == core.StatusBigSlide || big.Status == core.StatusBigMove) {
		return // big node in no root-bearing state: nothing to root at; skip
	}

	// I1.2: every head reaches the root by following parents, without
	// cycles. The root is the big node, its BIG_MOVE proxy, or — during
	// a BIG_SLIDE — the head of the cell the big node belongs to
	// (core.Snapshot.Root).
	root := ix.snap.Root()
	for _, j := range ix.heads {
		h := &ix.nodes[j]
		ix.markGen++
		cj := j
		for {
			cur := &ix.nodes[cj]
			if cur.ID == root {
				break
			}
			if cur.Blackout {
				// The walk runs through a transiently-down head: its
				// frozen parent pointer may be stale, and a down head
				// cannot repair it until it restores. Healing in
				// progress, not a violation.
				break
			}
			if co := ix.headOrd[cj]; ix.mark[co] == ix.markGen {
				r.addf("I1.2", h.ID, "cycle through %d", cur.ID)
				break
			} else {
				ix.mark[co] = ix.markGen
			}
			if cur.Parent == radio.None || cur.Parent == cur.ID {
				r.addf("I1.2", h.ID, "walk stuck at %d (parent %d)", cur.ID, cur.Parent)
				break
			}
			next := ix.nodeIdx(cur.Parent)
			if next < 0 || ix.headOrd[next] < 0 {
				r.addf("I1.2", h.ID, "parent %d of %d is not a live head", cur.Parent, cur.ID)
				break
			}
			cj = next
		}
	}
}

// checkI2 verifies the hexagonal-structure clauses I₂.₁–I₂.₄, and
// records each head's boundary flag for checkI3.
func checkI2(ix *index, mode Mode, r *Result) {
	cfg := ix.snap.Config
	lo, hi := cfg.NeighborDistMin(), cfg.NeighborDistMax()
	root := ix.snap.Root()

	for ho, j := range ix.heads {
		h := &ix.nodes[j]

		// Head within Rt of its IL (Corollary 2's bounded deviation).
		if d := h.Pos.Dist(h.IL); d > cfg.Rt+1e-9 {
			r.addf("I2.0", h.ID, "head %.3g from its IL (Rt=%.3g)", d, cfg.Rt)
		}

		// I2.1 / I2.2: neighbor-head distances, over the in-band heads in
		// ascending ID order. Pairs involving a blacked-out head are
		// skipped: a replacement head legitimately coexists near its
		// down predecessor until the predecessor restores and yields.
		// Occluded pairs are skipped for the same reason: heads that
		// cannot hear each other are not protocol neighbors, however
		// close an obstacle lets them stand.
		//
		// The same scan counts the heads h hears in the band. A boundary
		// cell head hears fewer than 6: the paper's boundary cells
		// (geographic edge or next to an R_t-gap region) are exactly the
		// cells missing lattice neighbors, and an unhearable lattice
		// neighbor is a missing one, so cells lining an obstacle are
		// boundary cells — exactly like cells lining an R_t-gap.
		band := ix.headsNear(h.Pos, hi+1e-9)
		slices.Sort(band)
		heard := 0
		for _, oi := range band {
			if int(oi) == ho {
				continue
			}
			o := ix.head(oi)
			if ix.occluded(h.Pos, o.Pos) {
				continue
			}
			heard++
			if h.Blackout || o.Blackout {
				continue
			}
			d := h.Pos.Dist(o.Pos)
			if mode == Dynamic && o.Spiral != h.Spiral {
				// Relaxed DI bound: distance tracks the IL distance
				// within ±2Rt, and IL distance stays in (0, 2√3R).
				ild := h.IL.Dist(o.IL)
				if ild <= 0 || ild >= 2*cfg.HeadSpacing()+1e-9 {
					r.addf("I2.1d", h.ID, "IL distance %.3g to %d outside (0, 2√3R)", ild, o.ID)
				}
				if math.Abs(d-ild) > 2*cfg.Rt+1e-9 {
					r.addf("I2.1d", h.ID, "distance %.3g to %d deviates from IL distance %.3g by more than 2Rt", d, o.ID, ild)
				}
				continue
			}
			if d < lo-1e-9 {
				r.addf("I2.1", h.ID, "neighbor %d at %.4g < %.4g", o.ID, d, lo)
			}
		}
		boundary := heard < 6
		ix.boundary[ho] = boundary

		// I2.3: children bound. The big node gets 6; the root head
		// standing in for it — the moving big node's proxy, or the head
		// that took over the big node's cell during a BIG_SLIDE (it
		// inherits the big node's children) — gets the same bound.
		limit := 3
		if mode == Dynamic && !h.IsBig {
			limit = 5
		}
		if h.IsBig || h.ID == root {
			limit = 6
		}
		if len(h.Children) > limit {
			r.addf("I2.3", h.ID, "%d children > limit %d", len(h.Children), limit)
		}

		// I2.4: cell radius. Inner cells: R + 2Rt/√3; dynamic mode with
		// differing ⟨ICC,ICP⟩ relaxes to 2R + Rt. Boundary cells would
		// get √3R + 2Rt plus the gap-region diameter, which we cannot
		// see locally, so no violation of theirs is certain: they are
		// not checked.
		if boundary {
			continue
		}
		bound := cfg.CellRadiusBound()
		if mode == Dynamic {
			bound = 2*cfg.R + cfg.Rt
		}
		for _, m := range ix.membersOf(ho) {
			if d := ix.pos[m].Dist(h.Pos); d > bound+1e-9 {
				r.addf("I2.4", ix.nodes[m].ID, "associate %.4g from head %d, bound %.4g", d, h.ID, bound)
			}
		}
	}
}

// checkI3 verifies inner-cell optimality: each associate of an inner
// cell belongs to one cell and has chosen the closest head. In dynamic
// mode only membership validity is required — a head shift moves the
// head role instantly, and the neighbors' optimal re-choice happens on
// their next sweep, so full optimality is a fixpoint property (F₃)
// rather than an invariant under intra-cell maintenance.
func checkI3(ix *index, mode Mode, r *Result) {
	coordination := ix.snap.Config.SearchRadius() + 1e-9
	for j, ho := range ix.headOf {
		if ix.status[j] != core.StatusAssociate {
			continue
		}
		if ho < 0 {
			v := &ix.nodes[j]
			r.addf("I3", v.ID, "associate of %d which is not a live head", v.Head)
			continue
		}
		hj := ix.heads[ho]
		if mode == Dynamic {
			if d := ix.pos[j].Dist(ix.pos[hj]); d > coordination {
				v := &ix.nodes[j]
				r.addf("I3", v.ID, "associate %.4g from head %d, beyond coordination range", d, v.Head)
			}
			continue
		}
		if ix.boundary[ho] {
			continue
		}
		if ix.down[j] || ix.down[hj] {
			continue // down node or down head: re-choice pending restore
		}
		chosen := ix.pos[j].Dist(ix.pos[hj])
		if o, d := ix.closerHead(ix.pos[j], ho, chosen); o >= 0 {
			v := &ix.nodes[j]
			r.addf("I3", v.ID, "head %d at %.4g closer than chosen %d at %.4g", ix.head(o).ID, d, v.Head, chosen)
		}
	}
}

// Fixpoint checks SF (mode Static) or DF (mode Dynamic): the invariant
// clauses plus cell optimality for every cell (F₃), coverage (F₄), and
// — in dynamic mode — the minimum-distance spanning tree property
// (F₁.₂ strengthened).
func Fixpoint(s core.Snapshot, mode Mode) Result {
	ix := newIndex(s)
	var r Result
	invariantOn(ix, mode, &r)
	checkF3(ix, &r)
	checkF4(ix, &r)
	if mode == Dynamic {
		checkMinDistTree(ix, &r)
	}
	return r
}

// checkF3: every associate (boundary cells included) has the best head.
func checkF3(ix *index, r *Result) {
	for j, ho := range ix.headOf {
		if ho < 0 {
			continue // not an associate, or reported by I3 already
		}
		hj := ix.heads[ho]
		if ix.down[j] || ix.down[hj] {
			continue // down node or down head: re-choice pending restore
		}
		chosen := ix.pos[j].Dist(ix.pos[hj])
		if o, d := ix.closerHead(ix.pos[j], ho, chosen); o >= 0 {
			r.addf("F3", ix.nodes[j].ID, "head %d at %.4g closer than chosen %.4g", ix.head(o).ID, d, chosen)
		}
	}
}

// checkF4: every node connected to the big node is covered (is a head
// or an associate). Connectivity is decided on the physical graph with
// the maximum transmission range as edge length; edges an obstacle
// occludes do not exist, so pockets of nodes an obstacle walls off from
// the big node owe no coverage — they legitimately stay at bootup.
func checkF4(ix *index, r *Result) {
	reach := ix.connected(ix.snap.BigID, ix.snap.Config.SearchRadius())
	for j, ok := range reach {
		if !ok || ix.down[j] {
			continue
		}
		switch {
		case ix.status[j] == core.StatusBootup:
			r.addf("F4", ix.nodes[j].ID, "connected node left at bootup")
		case ix.headOf[j] == headAbsent:
			v := &ix.nodes[j]
			r.addf("F4", v.ID, "associate of vanished head %d", v.Head)
		}
	}
}

// connected computes, for every snapshot node, whether it is connected
// to start in the physical graph where mutually visible nodes within
// txRange share an edge; the result is indexed by position in
// snap.Nodes.
//
// The search runs over units rather than nodes. Nodes are bucketed into
// cells of side txRange/2, whose diagonal is 0.71·txRange, so any two
// nodes of a cell are in range of each other. A cell no obstacle comes
// near is therefore a clique of the graph, and it is one unit, reached
// as a whole. A node in any other cell, or a wild node of the grid, is
// a unit of its own. Two units share an edge when some pair of their
// nodes does; only units within two cells of each other can, and the
// pair test stops at the first linked pair. The search expands every
// unit to its eight adjacent cells before it tries any unit's outer
// ring: in a dense field adjacent cells link at their first pairs and
// reach nearly everything, so the outer rings, whose pairs are mostly
// out of range, then rarely hold an unreached unit to test.
func (ix *index) connected(start radio.NodeID, txRange float64) []bool {
	reach := make([]bool, len(ix.nodes))
	si := ix.nodeIdx(start)
	if si < 0 {
		return reach
	}
	// A hair over txRange/2, so that the rounding spatial.MaxCell bounds
	// cannot push a node within txRange out of the ±2 ring scanned below.
	side := txRange / 2 * (1 + 0x1p-20)
	u := units{ix: ix, g: newGrid(side, ix.pos), r2: txRange * txRange}
	g := &u.g
	u.clique = u.cliques()
	u.reached = make([]bool, len(ix.nodes))
	u.queue = make([]int32, 0, len(u.clique))

	s0 := int32(slices.Index(g.items, si))
	if k, ok := spatial.KeyOf(g.pts[s0], g.side); ok && u.clique[g.cells.Find(k)] {
		u.reachCell(g.cells.Find(k))
	} else {
		u.reachSlot(s0)
	}
	for near, far := 0, 0; far < len(u.queue); {
		if near < len(u.queue) {
			u.expand(u.queue[near], 1)
			near++
		} else {
			u.expand(u.queue[far], 2)
			far++
		}
	}
	for s, ok := range u.reached {
		if ok {
			reach[g.items[s]] = true
		}
	}
	return reach
}

// units is the state of one connected search over the node grid g. A
// queued unit is a clique cell c ≥ 0, or ^s for the lone node in slot s.
type units struct {
	ix      *index
	g       grid
	r2      float64
	clique  []bool // per cell
	reached []bool // per slot
	queue   []int32
}

// expand reaches what unit q links to in the cells at Chebyshev ring
// distance ring (1 or 2) from its own, the cell itself included in ring
// 1, and among the wild nodes. A wild unit has no cell: it tries every
// cell, on ring 1 only.
func (u *units) expand(q int32, ring int32) {
	g := &u.g
	lo, hi := ^q, ^q+1
	if q >= 0 {
		lo, hi = g.start[q], g.start[q+1]
	}
	k, ok := spatial.KeyOf(g.pts[lo], g.side)
	switch {
	case ok:
		for y := k.Y - ring; y <= k.Y+ring; y++ {
			for x := k.X - ring; x <= k.X+ring; x++ {
				if max(x-k.X, k.X-x, y-k.Y, k.Y-y) < ring-1 {
					continue // an inner ring's cell: already expanded
				}
				if c := g.cells.Find(spatial.Key{X: x, Y: y}); c >= 0 {
					u.visitCell(lo, hi, c)
				}
			}
		}
	case ring == 1:
		for c := range u.clique {
			u.visitCell(lo, hi, int32(c))
		}
	}
	if ring == 1 {
		u.visitSlots(lo, hi, g.wild, int32(len(g.pts)))
	}
}

func (u *units) reachCell(c int32) {
	for s := u.g.start[c]; s < u.g.start[c+1]; s++ {
		u.reached[s] = true
	}
	u.queue = append(u.queue, c)
}

func (u *units) reachSlot(s int32) {
	u.reached[s] = true
	u.queue = append(u.queue, ^s)
}

// visitCell reaches, from the reached slots lo:hi, what is unreached and
// linked to them in cell c: the whole cell if it is a clique, else each
// linked node.
func (u *units) visitCell(lo, hi, c int32) {
	from, to := u.g.start[c], u.g.start[c+1]
	if !u.clique[c] {
		u.visitSlots(lo, hi, from, to)
	} else if !u.reached[from] && u.linked(lo, hi, from, to) {
		u.reachCell(c)
	}
}

// visitSlots reaches, from the reached slots lo:hi, each unreached node
// among slots from:to linked to one of them.
func (u *units) visitSlots(lo, hi, from, to int32) {
	for s := from; s < to; s++ {
		if !u.reached[s] && u.linked(lo, hi, s, s+1) {
			u.reachSlot(s)
		}
	}
}

// linked reports whether some node in slots lo:hi and some node in slots
// from:to are within range and in sight of each other.
func (u *units) linked(lo, hi, from, to int32) bool {
	pts := u.g.pts
	for a := lo; a < hi; a++ {
		pa := pts[a]
		for b := from; b < to; b++ {
			if pts[b].Dist2(pa) <= u.r2 && !u.ix.occluded(pa, pts[b]) {
				return true
			}
		}
	}
	return false
}

// cliques reports, per cell, whether the cell is a clique: its nodes are
// in range of each other by the cell's size, and in sight of each other
// unless an obstacle reaches into the cell. A cell within one cell of
// an obstacle's bounding box is taken not to be a clique; the margin
// keeps the claim clear of float rounding at the box's edge. An obstacle
// whose box is not finite reaches every cell.
func (u *units) cliques() []bool {
	g := &u.g
	clique := make([]bool, len(g.cells.Keys()))
	for c := range clique {
		clique[c] = true
	}
	for _, pg := range u.ix.snap.Obstacles {
		x0, y0, x1, y1 := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
		for _, v := range pg {
			x0, y0, x1, y1 = min(x0, v.X), min(y0, v.Y), max(x1, v.X), max(y1, v.Y)
		}
		x0, y0 = math.Floor(x0/g.side)-1, math.Floor(y0/g.side)-1
		x1, y1 = math.Floor(x1/g.side)+1, math.Floor(y1/g.side)+1
		for c, k := range g.cells.Keys() {
			// Written so that a NaN bound keeps the cell out.
			x, y := float64(k.X), float64(k.Y)
			if !(x < x0 || x > x1 || y < y0 || y > y1) {
				clique[c] = false
			}
		}
	}
	return clique
}

// checkMinDistTree verifies the strengthened F₁.₂ of GS³-D: the head
// graph is a minimum-hop spanning tree of the head-neighbor graph
// rooted at the root head (core.Snapshot.Root).
func checkMinDistTree(ix *index, r *Result) {
	cfg := ix.snap.Config
	root := ix.snap.Root()
	if rv := ix.view(root); rv == nil || rv.Blackout {
		return
	}
	// BFS over the head-neighbor graph Ghn (heads within √3R+2Rt).
	// Transiently-down heads are excluded: ParentSeek only considers
	// reachable heads, so the protocol's hop counts are shortest paths
	// in the blackout-excluded graph. dist is indexed by position in
	// nodes; -1 marks unreached.
	dist := make([]int32, len(ix.nodes))
	for i := range dist {
		dist[i] = -1
	}
	ri := ix.nodeIdx(root)
	dist[ri] = 0
	queue := make([]int32, 0, len(ix.heads)+1)
	queue = append(queue, ri)
	band := cfg.NeighborDistMax() + 1e-9
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		cp := ix.pos[cur]
		// The band query is fully consumed before the next headsNear
		// call (next queue pop), so the scratch-backed slice is safe.
		for _, oi := range ix.headsNear(cp, band) {
			oj := ix.heads[oi]
			if oj == cur || ix.down[oj] || ix.occluded(cp, ix.pos[oj]) {
				continue
			}
			if dist[oj] < 0 {
				dist[oj] = dist[cur] + 1
				queue = append(queue, oj)
			}
		}
	}
	for _, j := range ix.heads {
		h := &ix.nodes[j]
		want := dist[j]
		if want < 0 || h.Blackout {
			continue
		}
		if h.Hops != int(want) {
			r.addf("F1.2", h.ID, "hops %d, shortest path %d", h.Hops, want)
		}
	}
}

// StructureStats summarizes the configured structure for reporting.
type StructureStats struct {
	Heads          int
	Associates     int
	Bootup         int
	NeighborDists  []float64 // head-to-head distances within the band
	CellRadii      []float64 // associate-to-head distances
	MaxILDeviation float64   // max head distance from its IL
}

// Stats computes structure statistics of a snapshot.
func Stats(s core.Snapshot) StructureStats {
	ix := newIndex(s)
	cfg := s.Config
	var st StructureStats
	for i := range s.Nodes {
		v := &s.Nodes[i]
		switch {
		case v.Status.IsHeadRole():
			st.Heads++
			if d := v.Pos.Dist(v.IL); d > st.MaxILDeviation {
				st.MaxILDeviation = d
			}
		case v.Status == core.StatusAssociate:
			st.Associates++
			if hv := ix.view(v.Head); hv != nil {
				st.CellRadii = append(st.CellRadii, v.Pos.Dist(hv.Pos))
			}
		case v.Status == core.StatusBootup:
			st.Bootup++
		}
	}
	band := cfg.NeighborDistMax() + 1e-9
	for i, j := range ix.heads {
		p := ix.pos[j]
		// Upper-triangle scan: oi > i keeps each pair once, in (i
		// ascending, then oi ascending) order.
		near := ix.headsNear(p, band)
		slices.Sort(near)
		for _, oi := range near {
			if int(oi) > i {
				st.NeighborDists = append(st.NeighborDists, p.Dist(ix.pos[ix.heads[oi]]))
			}
		}
	}
	return st
}
