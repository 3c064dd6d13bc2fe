package check

import (
	"math"
	"slices"
	"testing"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/radio"
)

// fuzzField is the settled GS³-D field FuzzCheckerMatchesReference
// perturbs: 390 nodes in a disk of radius 250, cell radius 100.
func fuzzField(f *testing.F) core.Snapshot {
	nw := configuredField(f, 250, 3, nil)
	nw.StartMaintenance(core.VariantD)
	nw.Engine().RunUntil(nw.Engine().Now() + 3*nw.Config().HeartbeatInterval)
	return nw.Snapshot()
}

// fuzzPerturb decodes data into perturbations of a copy of snap. Each
// takes four bytes — an opcode, a node selector and two arguments — and
// at most 16 are read:
//
//	0 crater: remove the nodes (not the big node) within a·2SR/255 of
//	  the selected node
//	1 blackout: mark the selected node down
//	2 IL: displace the selected node's IL by b/32·Rt at angle a
//	3 hops: set the selected node's Hops to a-2
//	4 status: set the selected node's Status to a value picked by a
//	5 links: point the selected node's Head at the node selector a
//	  picks, and its Parent at the one b picks
//	6 obstacle: a rectangle around the selected node, a by b wide
//	7 move: carry the selected node next to the node a picks, b/8 off;
//	  with a ≥ 240, to wild coordinate b instead (see extremes), once,
//	  after every other perturbation
func fuzzPerturb(snap core.Snapshot, data []byte) core.Snapshot {
	snap = withNodes(snap)
	snap.Obstacles = slices.Clone(snap.Obstacles)
	cfg := snap.Config
	pick := func(sel byte) int { return int(sel) * len(snap.Nodes) / 256 }
	wildID, wildAt := radio.None, geom.Point{}
	for k := 0; k+4 <= len(data) && k < 64; k += 4 {
		op, j, a, b := data[k]%8, pick(data[k+1]), data[k+2], data[k+3]
		v := &snap.Nodes[j]
		switch op {
		case 0:
			c, r2 := v.Pos, math.Pow(float64(a)*2*cfg.SearchRadius()/255, 2)
			snap.Nodes = slices.DeleteFunc(snap.Nodes, func(u core.NodeView) bool {
				return u.ID != snap.BigID && u.Pos.Dist2(c) <= r2
			})
		case 1:
			v.Blackout = true
		case 2:
			v.IL = v.IL.Add(geom.UnitAt(float64(a) * 2 * math.Pi / 256).Scale(float64(b) / 32 * cfg.Rt))
		case 3:
			v.Hops = int(a) - 2
		case 4:
			v.Status = core.Status(1 + int(a)%int(core.StatusBigMove))
		case 5:
			v.Head, v.Parent = snap.Nodes[pick(a)].ID, snap.Nodes[pick(b)].ID
		case 6:
			w, h := float64(a)/2+1, float64(b)/2+1
			snap.Obstacles = append(snap.Obstacles, rect(v.Pos.X-w, v.Pos.Y-h, v.Pos.X+w, v.Pos.Y+h))
		case 7:
			if a >= 240 {
				wildID, wildAt = v.ID, extremes[int(b)%len(extremes)]
				break
			}
			off := geom.UnitAt(float64(b)).Scale(float64(b) / 8)
			v.Pos = snap.Nodes[pick(a)].Pos.Add(off)
		}
	}
	if wildID != radio.None {
		// The node may have gone in a later crater: then the next one.
		j, _ := slices.BinarySearchFunc(snap.Nodes, wildID, func(u core.NodeView, id radio.NodeID) int { return int(u.ID - id) })
		for j %= len(snap.Nodes); !canGoWild(snap, j, wildAt); {
			j = (j + 1) % len(snap.Nodes)
		}
		snap.Nodes[j].Pos = wildAt
	}
	return snap
}

// FuzzCheckerMatchesReference requires the checker and the reference
// (checkref_test.go) to return identical results on a settled field
// under any decoded mix of craters, blackouts, corrupted IL, Hops,
// Status, Head and Parent, rectangular obstacles, moved nodes and one
// node at a wild coordinate (fuzzPerturb).
func FuzzCheckerMatchesReference(f *testing.F) {
	base := fuzzField(f)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsReference(t, "fuzzed", fuzzPerturb(base, data))
	})
}
