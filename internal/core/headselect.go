package core

import (
	"math"

	"gs3/internal/geom"
	"gs3/internal/radio"
)

// NeighborILs computes the ideal locations of the neighboring cells in a
// head's search region (HEAD_SELECT Step 1, paper Figure 3): the big
// node (its own parent, search region ⟨0°, 360°⟩) gets all six cells
// around its own, every other head the three forward ones (search
// region ⟨−60°−a, 60°+a⟩). See ilRing.
func NeighborILs(cfg Config, il, parentIL geom.Point, isRoot bool) []geom.Point {
	return ilRing(nil, cfg, il, parentIL, isRoot)
}

// ilRing appends to dst the ILs of the cells around the cell at il:
// the points √3·R from il at angles base + j·60°, where base is the
// reference direction (refAngle). all selects the full ring, j = 0…5,
// which the big node's HEAD_ORG and every boundary rescan search;
// otherwise it appends the three forward cells, j = −1, 0, 1. At most
// six entries are appended, so HEAD_ORG computes its ILs into a fixed
// buffer without allocating.
func ilRing(dst []geom.Point, cfg Config, il, parentIL geom.Point, all bool) []geom.Point {
	first, last := -1, 1
	if all {
		first, last = 0, 5
	}
	base, spacing := refAngle(cfg, il, parentIL), cfg.HeadSpacing()
	for j := first; j <= last; j++ {
		dst = append(dst, il.Add(geom.UnitAt(base+float64(j)*math.Pi/3).Scale(spacing)))
	}
	return dst
}

// refAngle is the angle of a head's reference direction RD′, IL(P(i)) →
// IL(i), the one rule behind its neighboring ILs and its search sector.
// When the two ILs coincide — the big node is its own parent, and a
// corrupted parent pointer can do the same — or the direction is not a
// number, it falls back to GR, so the action stays total; sanity
// checking repairs a corrupted state.
func refAngle(cfg Config, il, parentIL geom.Point) float64 {
	if ref := il.Sub(parentIL); ref.Len() > 0 {
		return ref.Angle()
	}
	return cfg.GR
}

// SearchSector returns the angular search region of a head for
// organizing (HEAD_ORG's ⟨LD, RD⟩): the full circle for the big node,
// ⟨−60°−a, 60°+a⟩ around the reference direction (refAngle) otherwise,
// with radius √3·R + 2·Rt.
func SearchSector(cfg Config, il, parentIL geom.Point, isRoot bool) geom.Sector {
	lo, hi := -math.Pi, math.Pi
	if !isRoot {
		a := cfg.Alpha()
		lo, hi = -math.Pi/3-a, math.Pi/3+a
	}
	return geom.NewSector(il, refAngle(cfg, il, parentIL), lo, hi, cfg.SearchRadius())
}

// Ranked is a node together with its HEAD_SELECT ranking key.
type Ranked struct {
	ID   radio.NodeID
	D    float64 // distance to the ideal location (highest significance)
	AbsA float64 // |A|: magnitude of the angle from GR to IL→node
	A    float64 // signed angle (clockwise negative)
}

// rankKeyCmp compares two candidates in the paper's lexicographic order
// ⟨d, |A|, A⟩, with node ID as a final deterministic tie-break (two
// nodes at the exact same position are not distinguishable
// geometrically). The key is total (ID breaks every tie), so the best
// candidate is unique.
func rankKeyCmp(a, b Ranked) int {
	switch {
	case a.D != b.D:
		return cmpFloat(a.D, b.D)
	case a.AbsA != b.AbsA:
		return cmpFloat(a.AbsA, b.AbsA)
	case a.A != b.A:
		return cmpFloat(a.A, b.A)
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	if a < b {
		return -1
	}
	return 1
}

// rankOf computes one node's ⟨d, |A|, A⟩ ranking key.
func rankOf(il geom.Point, ref geom.Vec, id radio.NodeID, p geom.Point) Ranked {
	v := p.Sub(il)
	a := 0.0
	if v.Len() > 0 {
		a = geom.SignedAngle(ref, v)
	}
	return Ranked{ID: id, D: il.Dist(p), AbsA: math.Abs(a), A: a}
}

// BestCandidate returns the highest-ranked node of CA(il), or
// (radio.None, false) if ids is empty. The ranking key is a total order
// (ID breaks every tie), so a single min-scan finds exactly the node a
// full sort by rankKeyCmp would put first — without allocating or
// sorting, which matters because this runs inside every HEAD_SELECT,
// ChooseHead, and candidate election. The scan compares d first, as
// rankKeyCmp does, and computes the ⟨|A|, A⟩ angles only when a
// distance ties the best one exactly: nothing else consults them. A
// lone node wins with no distance computed at all.
func BestCandidate(il geom.Point, gr float64, ids []radio.NodeID, pos func(radio.NodeID) geom.Point) (radio.NodeID, bool) {
	if len(ids) == 0 {
		return radio.None, false
	}
	bestID := ids[0]
	if len(ids) == 1 {
		return bestID, true
	}
	bestP := pos(bestID)
	bestD := il.Dist(bestP)
	var ref geom.Vec
	var best Ranked // the best's full key, valid once ranked
	ranked := false
	for _, id := range ids[1:] {
		p := pos(id)
		if d := il.Dist(p); d != bestD {
			if d < bestD {
				bestID, bestP, bestD, ranked = id, p, d, false
			}
			continue
		}
		if !ranked {
			ref = geom.UnitAt(gr)
			best, ranked = rankOf(il, ref, bestID, bestP), true
		}
		if r := rankOf(il, ref, id, p); rankKeyCmp(r, best) < 0 {
			best, bestID, bestP = r, id, p
		}
	}
	return bestID, true
}
