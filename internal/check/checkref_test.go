package check

// This file preserves the invariant checker as it stood before its
// per-snapshot index was rebuilt on cell units, verbatim except for
// renames, as a test-only oracle. The lockstep suite
// (checkref_lockstep_test.go) and FuzzCheckerMatchesReference run it
// and the live checker over the same snapshots and require identical
// results: every violation, in order, with its Detail string, and
// identical Stats. Violation, Result and StructureStats are shared
// with check.go, so the two sides' results compare directly.

import (
	"math"
	"slices"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/radio"
)

// refIndex provides O(1) lookups over a snapshot: ID→view resolution, the
// head list, per-head member lists, and a head-position grid that
// answers "which heads are near p" in output-sensitive time, so the
// neighbor-band clauses cost O(heads) overall instead of O(heads²).
//
// Node IDs are allocated densely from 0 (see radio.NodeID), so the
// ID→view table is a flat slice rather than a map, and the member lists
// are one counting-sorted backing array — building an index costs a
// fixed handful of allocations instead of a few per node, which keeps
// Invariant off the allocator on benchmark hot paths.
type refIndex struct {
	snap core.Snapshot
	// byID maps a node ID to its position in snap.Nodes (-1 if absent).
	byID  []int32
	heads []core.NodeView
	// headNode[i] is the snap.Nodes index of heads[i]; headOrd[j] is the
	// head ordinal of snap.Nodes[j] (-1 for non-heads).
	headNode []int32
	headOrd  []int32

	// Associates grouped by head ordinal: membersOf(i) is
	// memberIDs[memberOff[i]:memberOff[i+1]], ascending by ID within
	// each group (snapshot order is ascending and the counting sort is
	// stable).
	memberOff []int32
	memberIDs []radio.NodeID

	// headGrid buckets head ordinals by position; cell is the bucket
	// edge (the neighbor-band radius, so band queries scan a 3×3 ring).
	// Bucket slices are carved from one backing array. nearBuf is the
	// reusable result buffer of headsNear.
	headGrid map[refGridKey][]int32
	cell     float64
	nearBuf  []int

	// mark/markGen form an O(1)-reset visited set for the tree walks:
	// mark[j] == markGen means snap.Nodes[j] is visited in the current
	// walk.
	mark    []int32
	markGen int32
}

type refGridKey struct{ x, y int }

func newRefIndex(s core.Snapshot) *refIndex {
	maxID := radio.NodeID(-1)
	nHeads := 0
	for i := range s.Nodes {
		if s.Nodes[i].ID > maxID {
			maxID = s.Nodes[i].ID
		}
		if s.Nodes[i].IsHead() {
			nHeads++
		}
	}
	ix := &refIndex{
		snap:     s,
		byID:     make([]int32, maxID+1),
		heads:    make([]core.NodeView, 0, nHeads),
		headNode: make([]int32, 0, nHeads),
		headOrd:  make([]int32, len(s.Nodes)),
		mark:     make([]int32, len(s.Nodes)),
		cell:     s.Config.NeighborDistMax(),
	}
	for i := range ix.byID {
		ix.byID[i] = -1
	}
	for j := range s.Nodes {
		v := &s.Nodes[j]
		ix.byID[v.ID] = int32(j)
		ix.headOrd[j] = -1
		if v.IsHead() {
			ix.headOrd[j] = int32(len(ix.heads))
			ix.heads = append(ix.heads, *v)
			ix.headNode = append(ix.headNode, int32(j))
		}
	}

	// Members: counting layout. Associates whose Head does not resolve
	// to a live head are dropped — member lists are only ever queried
	// for actual heads, and the membership clauses report those nodes
	// separately.
	ix.memberOff = make([]int32, nHeads+1)
	for j := range s.Nodes {
		if s.Nodes[j].Status == core.StatusAssociate {
			if ho := ix.headOrdOf(s.Nodes[j].Head); ho >= 0 {
				ix.memberOff[ho+1]++
			}
		}
	}
	for i := 1; i <= nHeads; i++ {
		ix.memberOff[i] += ix.memberOff[i-1]
	}
	ix.memberIDs = make([]radio.NodeID, ix.memberOff[nHeads])
	cursor := make([]int32, nHeads)
	copy(cursor, ix.memberOff[:nHeads])
	for j := range s.Nodes {
		if s.Nodes[j].Status == core.StatusAssociate {
			if ho := ix.headOrdOf(s.Nodes[j].Head); ho >= 0 {
				ix.memberIDs[cursor[ho]] = s.Nodes[j].ID
				cursor[ho]++
			}
		}
	}

	// Head grid: count per bucket first, then carve every bucket from
	// one backing array so the fill pass never reallocates.
	counts := make(map[refGridKey]int32, nHeads)
	for i := range ix.heads {
		counts[ix.keyOf(ix.heads[i].Pos)]++
	}
	backing := make([]int32, nHeads)
	ix.headGrid = make(map[refGridKey][]int32, len(counts))
	n := int32(0)
	for k, c := range counts {
		ix.headGrid[k] = backing[n : n : n+c]
		n += c
	}
	for i := range ix.heads {
		k := ix.keyOf(ix.heads[i].Pos)
		ix.headGrid[k] = append(ix.headGrid[k], int32(i))
	}
	return ix
}

// nodeIdx returns the snap.Nodes position of id, or -1.
func (ix *refIndex) nodeIdx(id radio.NodeID) int32 {
	if id < 0 || int(id) >= len(ix.byID) {
		return -1
	}
	return ix.byID[id]
}

// headOrdOf returns the head ordinal of id, or -1 if id is absent or
// not a head.
func (ix *refIndex) headOrdOf(id radio.NodeID) int32 {
	j := ix.nodeIdx(id)
	if j < 0 {
		return -1
	}
	return ix.headOrd[j]
}

// view resolves id to its snapshot view, the dense-slice equivalent of
// the old views-map lookup.
func (ix *refIndex) view(id radio.NodeID) (core.NodeView, bool) {
	j := ix.nodeIdx(id)
	if j < 0 {
		return core.NodeView{}, false
	}
	return ix.snap.Nodes[j], true
}

// membersOf returns the associate IDs of the head with ordinal ho,
// ascending. The slice aliases the index's backing array: read-only.
func (ix *refIndex) membersOf(ho int) []radio.NodeID {
	return ix.memberIDs[ix.memberOff[ho]:ix.memberOff[ho+1]]
}

func (ix *refIndex) keyOf(p geom.Point) refGridKey {
	return refGridKey{int(math.Floor(p.X / ix.cell)), int(math.Floor(p.Y / ix.cell))}
}

// headsNear returns the indices (into ix.heads) of all heads within
// dist of p, in ascending index order — which is ascending ID order,
// because heads is built from the ID-sorted snapshot. The slice aliases
// the index's scratch buffer: it is valid until the next headsNear
// call. A head exactly at p (e.g. the query head itself) is included.
func (ix *refIndex) headsNear(p geom.Point, dist float64) []int {
	ix.nearBuf = ix.nearBuf[:0]
	r := int(math.Ceil(dist / ix.cell))
	r2 := dist * dist
	base := ix.keyOf(p)
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for _, i := range ix.headGrid[refGridKey{base.x + dx, base.y + dy}] {
				if ix.heads[i].Pos.Dist2(p) <= r2 {
					ix.nearBuf = append(ix.nearBuf, int(i))
				}
			}
		}
	}
	slices.Sort(ix.nearBuf)
	return ix.nearBuf
}

// occluded reports whether an obstacle blocks the line of sight between
// two positions in this snapshot. With no obstacles it is constant
// false, so obstacle-free checks behave exactly as before.
func (ix *refIndex) occluded(a, b geom.Point) bool {
	return len(ix.snap.Obstacles) != 0 && geom.AnyOccludes(ix.snap.Obstacles, a, b)
}

// isBoundary reports whether head h is a boundary cell head: one with
// fewer than 6 heads in the neighbor distance band around it. The
// paper's boundary cells (geographic edge or next to an R_t-gap region)
// are exactly the cells missing lattice neighbors. Heads behind an
// obstacle do not count: an unhearable lattice neighbor is a missing
// one, so cells lining an obstacle are boundary cells — exactly like
// cells lining an R_t-gap.
func (ix *refIndex) isBoundary(h core.NodeView) bool {
	cfg := ix.snap.Config
	count := 0
	for _, oi := range ix.headsNear(h.Pos, cfg.NeighborDistMax()+1e-9) {
		if ix.heads[oi].ID != h.ID && !ix.occluded(h.Pos, ix.heads[oi].Pos) {
			count++
		}
	}
	return count < 6
}

// refInvariant checks SI (mode Static) or DI (mode Dynamic) on the
// snapshot.
func refInvariant(s core.Snapshot, mode Mode) Result {
	ix := newRefIndex(s)
	var r Result
	refInvariantOn(ix, mode, &r)
	return r
}

// refInvariantOn runs the invariant clauses against an existing index, so
// Fixpoint shares one index build with the fixpoint clauses.
func refInvariantOn(ix *refIndex, mode Mode, r *Result) {
	refCheckI1(ix, r)
	refCheckI2(ix, mode, r)
	refCheckI3(ix, mode, r)
}

// refCheckI1 verifies connectivity: I₁.₁ (head-graph edges are physical
// edges) and I₁.₂ (the head graph is a tree rooted at the big node).
func refCheckI1(ix *refIndex, r *Result) {
	cfg := ix.snap.Config
	bigID := ix.snap.BigID
	big, haveBig := ix.view(bigID)

	for _, h := range ix.heads {
		// I1.1: parent and children within local-coordination range,
		// hence physically connected (nodes can reach √3R+2Rt).
		if h.Parent != radio.None && h.Parent != h.ID {
			if p, ok := ix.view(h.Parent); ok && p.IsHead() {
				if d := h.Pos.Dist(p.Pos); d > cfg.SearchRadius()+2*cfg.Rt+1e-9 {
					r.addf("I1.1", h.ID, "parent %d at distance %.3g beyond range", h.Parent, d)
				}
			}
		}
	}

	if haveBig && !(big.IsHead() || big.Status == core.StatusBigSlide || big.Status == core.StatusBigMove) {
		return // big node in no root-bearing state: nothing to root at; skip
	}

	// I1.2: every head reaches the root by following parents, without
	// cycles. The root is the big node, its BIG_MOVE proxy, or — during
	// a BIG_SLIDE — the head of the cell the big node belongs to
	// (core.Snapshot.Root).
	root := ix.snap.Root()
	for _, h := range ix.heads {
		ix.markGen++
		cur := h
		for {
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
			if ci := ix.nodeIdx(cur.ID); ix.mark[ci] == ix.markGen {
				r.addf("I1.2", h.ID, "cycle through %d", cur.ID)
				break
			} else {
				ix.mark[ci] = ix.markGen
			}
			if cur.Parent == radio.None || cur.Parent == cur.ID {
				r.addf("I1.2", h.ID, "walk stuck at %d (parent %d)", cur.ID, cur.Parent)
				break
			}
			next, ok := ix.view(cur.Parent)
			if !ok || !next.IsHead() {
				r.addf("I1.2", h.ID, "parent %d of %d is not a live head", cur.Parent, cur.ID)
				break
			}
			cur = next
		}
	}
}

// refCheckI2 verifies the hexagonal-structure clauses I₂.₁–I₂.₄.
func refCheckI2(ix *refIndex, mode Mode, r *Result) {
	cfg := ix.snap.Config
	lo, hi := cfg.NeighborDistMin(), cfg.NeighborDistMax()
	root := ix.snap.Root()

	for ho := range ix.heads {
		h := ix.heads[ho]
		boundary := ix.isBoundary(h)

		// Head within Rt of its IL (Corollary 2's bounded deviation).
		if d := h.Pos.Dist(h.IL); d > cfg.Rt+1e-9 {
			r.addf("I2.0", h.ID, "head %.3g from its IL (Rt=%.3g)", d, cfg.Rt)
		}

		// I2.1 / I2.2: neighbor-head distances. The grid returns the
		// in-band heads directly, ascending by ID like the full scan did.
		// Pairs involving a blacked-out head are skipped: a replacement
		// head legitimately coexists near its down predecessor until the
		// predecessor restores and yields. Occluded pairs are skipped for
		// the same reason: heads that cannot hear each other are not
		// protocol neighbors, however close an obstacle lets them stand.
		for _, oi := range ix.headsNear(h.Pos, hi+1e-9) {
			o := ix.heads[oi]
			if o.ID == h.ID || h.Blackout || o.Blackout || ix.occluded(h.Pos, o.Pos) {
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
		// differing ⟨ICC,ICP⟩ relaxes to 2R + Rt; boundary cells to
		// √3R + 2Rt (+ the gap-region diameter, which we cannot see
		// locally, so boundary cells get the base bound only when no
		// violation is certain).
		bound := cfg.CellRadiusBound()
		if mode == Dynamic {
			bound = 2*cfg.R + cfg.Rt
		}
		if boundary {
			bound = cfg.HeadSpacing() + 2*cfg.Rt
		}
		for _, m := range ix.membersOf(ho) {
			mv, _ := ix.view(m)
			if d := mv.Pos.Dist(h.Pos); d > bound+1e-9 && !boundary {
				r.addf("I2.4", m, "associate %.4g from head %d, bound %.4g", d, h.ID, bound)
			}
		}
	}
}

// refCheckI3 verifies inner-cell optimality: each associate of an inner
// cell belongs to one cell and has chosen the closest head. In dynamic
// mode only membership validity is required — a head shift moves the
// head role instantly, and the neighbors' optimal re-choice happens on
// their next sweep, so full optimality is a fixpoint property (F₃)
// rather than an invariant under intra-cell maintenance.
func refCheckI3(ix *refIndex, mode Mode, r *Result) {
	for _, v := range ix.snap.Nodes {
		if v.Status != core.StatusAssociate {
			continue
		}
		hv, ok := ix.view(v.Head)
		if !ok || !hv.IsHead() {
			r.addf("I3", v.ID, "associate of %d which is not a live head", v.Head)
			continue
		}
		if mode == Dynamic {
			if d := v.Pos.Dist(hv.Pos); d > ix.snap.Config.SearchRadius()+1e-9 {
				r.addf("I3", v.ID, "associate %.4g from head %d, beyond coordination range", d, v.Head)
			}
			continue
		}
		if ix.isBoundary(hv) {
			continue
		}
		if v.Blackout || hv.Blackout {
			continue // down node or down head: re-choice pending restore
		}
		// Any head beating the chosen one lies within chosen of the
		// associate, so the grid query bounds the scan.
		chosen := v.Pos.Dist(hv.Pos)
		for _, oi := range ix.headsNear(v.Pos, chosen) {
			o := ix.heads[oi]
			if o.Blackout || ix.occluded(v.Pos, o.Pos) {
				continue // unhearable: cannot be chosen
			}
			if d := v.Pos.Dist(o.Pos); d < chosen-1e-9 {
				r.addf("I3", v.ID, "head %d at %.4g closer than chosen %d at %.4g", o.ID, d, v.Head, chosen)
				break
			}
		}
	}
}

// refFixpoint checks SF (mode Static) or DF (mode Dynamic): the invariant
// clauses plus cell optimality for every cell (F₃), coverage (F₄), and
// — in dynamic mode — the minimum-distance spanning tree property
// (F₁.₂ strengthened).
func refFixpoint(s core.Snapshot, mode Mode) Result {
	ix := newRefIndex(s)
	var r Result
	refInvariantOn(ix, mode, &r)
	refCheckF3(ix, &r)
	refCheckF4(ix, &r)
	if mode == Dynamic {
		refCheckMinDistTree(ix, &r)
	}
	return r
}

// refCheckF3: every associate (boundary cells included) has the best head.
func refCheckF3(ix *refIndex, r *Result) {
	for _, v := range ix.snap.Nodes {
		if v.Status != core.StatusAssociate {
			continue
		}
		hv, ok := ix.view(v.Head)
		if !ok || !hv.IsHead() {
			continue // reported by I3 already
		}
		if v.Blackout || hv.Blackout {
			continue // down node or down head: re-choice pending restore
		}
		chosen := v.Pos.Dist(hv.Pos)
		for _, oi := range ix.headsNear(v.Pos, chosen) {
			o := ix.heads[oi]
			if o.Blackout || ix.occluded(v.Pos, o.Pos) {
				continue // a live associate cannot hear a down head
			}
			if d := v.Pos.Dist(o.Pos); d < chosen-1e-9 {
				r.addf("F3", v.ID, "head %d at %.4g closer than chosen %.4g", o.ID, d, chosen)
				break
			}
		}
	}
}

// refCheckF4: every node connected to the big node is covered (is a head
// or an associate). Connectivity is decided on the physical graph with
// the maximum transmission range as edge length; edges an obstacle
// occludes do not exist, so pockets of nodes an obstacle walls off from
// the big node owe no coverage — they legitimately stay at bootup.
func refCheckF4(ix *refIndex, r *Result) {
	cfg := ix.snap.Config
	reach := ix.connected(ix.snap.BigID, cfg.SearchRadius())
	for i, v := range ix.snap.Nodes {
		if !reach[i] || v.Blackout {
			continue
		}
		switch v.Status {
		case core.StatusBootup:
			r.addf("F4", v.ID, "connected node left at bootup")
		case core.StatusAssociate:
			if _, ok := ix.view(v.Head); !ok {
				r.addf("F4", v.ID, "associate of vanished head %d", v.Head)
			}
		}
	}
}

// connected computes, for every snapshot node, whether it is connected
// to start in the physical graph where mutually visible nodes within
// txRange share an edge; the result is indexed by position in
// snap.Nodes. Nodes are
// bucketed into a txRange-sized grid — carved from one backing array,
// like the head grid — so each BFS hop scans only the 3×3 ring around
// the current node instead of every node.
func (ix *refIndex) connected(start radio.NodeID, txRange float64) []bool {
	s := ix.snap
	key := func(p geom.Point) refGridKey {
		return refGridKey{int(math.Floor(p.X / txRange)), int(math.Floor(p.Y / txRange))}
	}
	counts := make(map[refGridKey]int32, len(s.Nodes))
	for i := range s.Nodes {
		counts[key(s.Nodes[i].Pos)]++
	}
	backing := make([]int32, len(s.Nodes))
	grid := make(map[refGridKey][]int32, len(counts))
	n := int32(0)
	for k, c := range counts {
		grid[k] = backing[n : n : n+c]
		n += c
	}
	for i := range s.Nodes {
		k := key(s.Nodes[i].Pos)
		grid[k] = append(grid[k], int32(i))
	}
	reach := make([]bool, len(s.Nodes))
	si := ix.nodeIdx(start)
	if si < 0 {
		return reach
	}
	r2 := txRange * txRange
	queue := make([]int32, 0, len(s.Nodes))
	queue = append(queue, si)
	reach[si] = true
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		cp := s.Nodes[cur].Pos
		base := key(cp)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[refGridKey{base.x + dx, base.y + dy}] {
					if !reach[j] && s.Nodes[j].Pos.Dist2(cp) <= r2 &&
						!ix.occluded(cp, s.Nodes[j].Pos) {
						reach[j] = true
						queue = append(queue, j)
					}
				}
			}
		}
	}
	return reach
}

// refCheckMinDistTree verifies the strengthened F₁.₂ of GS³-D: the head
// graph is a minimum-hop spanning tree of the head-neighbor graph
// rooted at the root head (core.Snapshot.Root).
func refCheckMinDistTree(ix *refIndex, r *Result) {
	cfg := ix.snap.Config
	root := ix.snap.Root()
	if rv, ok := ix.view(root); !ok || rv.Blackout {
		return
	}
	// BFS over the head-neighbor graph Ghn (heads within √3R+2Rt).
	// Transiently-down heads are excluded: ParentSeek only considers
	// reachable heads, so the protocol's hop counts are shortest paths
	// in the blackout-excluded graph. dist is indexed by snap.Nodes
	// position; -1 marks unreached.
	dist := make([]int32, len(ix.snap.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	ri := ix.nodeIdx(root)
	dist[ri] = 0
	queue := make([]int32, 0, len(ix.heads)+1)
	queue = append(queue, ri)
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		cv := ix.snap.Nodes[cur]
		// The band query is fully consumed before the next headsNear
		// call (next queue pop), so the scratch-backed slice is safe.
		for _, oi := range ix.headsNear(cv.Pos, cfg.NeighborDistMax()+1e-9) {
			o := ix.heads[oi]
			if o.ID == cv.ID || o.Blackout || ix.occluded(cv.Pos, o.Pos) {
				continue
			}
			if oj := ix.headNode[oi]; dist[oj] < 0 {
				dist[oj] = dist[cur] + 1
				queue = append(queue, oj)
			}
		}
	}
	for hi, h := range ix.heads {
		want := dist[ix.headNode[hi]]
		if want < 0 || h.Blackout {
			continue
		}
		if h.Hops != int(want) {
			r.addf("F1.2", h.ID, "hops %d, shortest path %d", h.Hops, want)
		}
	}
}

// refStats computes structure statistics of a snapshot.
func refStats(s core.Snapshot) StructureStats {
	ix := newRefIndex(s)
	cfg := s.Config
	var st StructureStats
	for _, v := range s.Nodes {
		switch {
		case v.IsHead():
			st.Heads++
			if d := v.Pos.Dist(v.IL); d > st.MaxILDeviation {
				st.MaxILDeviation = d
			}
		case v.Status == core.StatusAssociate:
			st.Associates++
			if hv, ok := ix.view(v.Head); ok {
				st.CellRadii = append(st.CellRadii, v.Pos.Dist(hv.Pos))
			}
		case v.Status == core.StatusBootup:
			st.Bootup++
		}
	}
	for i, h := range ix.heads {
		// Grid-pruned upper-triangle scan: oi > i keeps each pair once,
		// in the same (i ascending, then j ascending) order as before.
		for _, oi := range ix.headsNear(h.Pos, cfg.NeighborDistMax()+1e-9) {
			if oi > i {
				st.NeighborDists = append(st.NeighborDists, h.Pos.Dist(ix.heads[oi].Pos))
			}
		}
	}
	return st
}
