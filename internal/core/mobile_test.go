package core

import (
	"math"
	"testing"

	"gs3/internal/geom"
	"gs3/internal/radio"
)

// configureMobile builds a configured network running GS³-M.
func configureMobile(t *testing.T, regionRadius float64) (*Network, Config) {
	t.Helper()
	nw, cfg := configureGridFresh(t, 100, regionRadius)
	nw.StartMaintenance(VariantM)
	return nw, cfg
}

func TestBigMoveRetreatsAndAdoptsProxy(t *testing.T) {
	nw, cfg := configureMobile(t, 400)
	big := nw.Node(nw.BigID())
	// Move the big node well away from its IL but into known coverage.
	target := geom.Point{X: cfg.HeadSpacing() / 2, Y: cfg.R / 3}
	nw.Move(nw.BigID(), target)
	runSweeps(nw, 3)

	if big.Status.IsHeadRole() {
		// It may have reclaimed a cell if it landed within Rt of an IL;
		// with this target it should not have.
		if nw.Position(nw.BigID()).Dist(big.IL) > cfg.Rt {
			t.Fatal("big node heads a cell it is too far from")
		}
		t.Skip("big node landed within Rt of an IL; proxy path not exercised")
	}
	if big.Status != StatusBigMove {
		t.Fatalf("big node status = %v, want big_move", big.Status)
	}
	if nw.coldOf(nw.BigID()).Proxy == radio.None {
		t.Fatal("no proxy adopted")
	}
	// The proxy is the closest head.
	proxyDist := nw.Medium().Dist(nw.BigID(), nw.coldOf(nw.BigID()).Proxy)
	for _, h := range nw.Snapshot().Heads() {
		if h.IsBig {
			continue
		}
		if d := target.Dist(h.Pos); d < proxyDist-1e-9 {
			t.Errorf("head %d at %v closer than proxy at %v", h.ID, d, proxyDist)
		}
	}
}

func TestBigMoveProxyBecomesHopRoot(t *testing.T) {
	nw, cfg := configureMobile(t, 400)
	nw.Move(nw.BigID(), geom.Point{X: cfg.HeadSpacing() / 2, Y: cfg.R / 3})
	runSweeps(nw, 6)
	big := nw.Node(nw.BigID())
	if big.Status != StatusBigMove || nw.coldOf(nw.BigID()).Proxy == radio.None {
		t.Skip("proxy path not reached")
	}
	if got := nw.Node(nw.coldOf(nw.BigID()).Proxy).Hops; got != 0 {
		t.Errorf("proxy hops = %d, want 0", got)
	}
	// All other heads have hops = parent's + 1 (tree re-rooted).
	snap := nw.Snapshot()
	views := map[radio.NodeID]NodeView{}
	for _, v := range snap.Nodes {
		views[v.ID] = v
	}
	for _, h := range snap.Heads() {
		if h.ID == nw.coldOf(nw.BigID()).Proxy || h.IsBig {
			continue
		}
		p, ok := views[h.Parent]
		if ok && p.IsHead() && h.Hops != p.Hops+1 {
			t.Errorf("head %d hops %d, parent hops %d", h.ID, h.Hops, p.Hops)
		}
	}
}

func TestBigNodeReclaimsCellOnReturn(t *testing.T) {
	nw, cfg := configureMobile(t, 400)
	home := nw.Position(nw.BigID())
	nw.Move(nw.BigID(), geom.Point{X: cfg.HeadSpacing() / 2, Y: cfg.R / 3})
	runSweeps(nw, 4)
	// Return home: the big node must replace whoever heads its old cell.
	nw.Move(nw.BigID(), home)
	runSweeps(nw, 4)
	big := nw.Node(nw.BigID())
	if !big.Status.IsHeadRole() {
		t.Fatalf("big node did not reclaim headship: %v", big.Status)
	}
	if big.IL.Dist(home) > cfg.Rt+1e-9 {
		t.Errorf("big node heads a cell with IL %v away from home", big.IL.Dist(home))
	}
	if nw.coldOf(nw.BigID()).Proxy != radio.None {
		t.Error("proxy not cleared after reclaim")
	}
	if big.Hops != 0 {
		t.Errorf("big node hops = %d", big.Hops)
	}
}

func TestBigMoveImpactContained(t *testing.T) {
	// Theorem 11: moving the big node distance d changes the head graph
	// only within a circle of radius √3·d/2 around the segment midpoint
	// (plus one cell of slack for the discrete structure).
	nw, cfg := configureMobile(t, 500)
	runSweeps(nw, 6) // settle parents first

	before := map[radio.NodeID]radio.NodeID{}
	for _, h := range nw.Snapshot().Heads() {
		before[h.ID] = h.Parent
	}

	a := nw.Position(nw.BigID())
	d := 1.8 * cfg.HeadSpacing()
	b := a.Add(geom.Vec{X: d, Y: 0})
	nw.Move(nw.BigID(), b)
	runSweeps(nw, 12)

	mid := a.Midpoint(b)
	// Discrete slack: heads sit up to Rt off their ILs, and a handful
	// of equal-hop tie flips can occur at the 60° lattice-sector
	// boundaries regardless of distance (the paper's bound is for the
	// idealized continuous analysis). Require the bulk of the impact to
	// be contained.
	allowed := 1.7320508*d/2 + cfg.SearchRadius()
	changed, outside := 0, 0
	for _, h := range nw.Snapshot().Heads() {
		old, existed := before[h.ID]
		if !existed || h.IsBig || h.Parent == old {
			continue
		}
		changed++
		if h.Pos.Dist(mid) > allowed {
			outside++
		}
	}
	if changed == 0 {
		t.Fatal("big-node move changed nothing")
	}
	if outside > (changed+4)/5 || outside > 4 {
		t.Errorf("%d of %d parent changes outside the √3d/2 region", outside, changed)
	}
}

func TestSmallNodeMoveRejoins(t *testing.T) {
	nw, cfg := configureMobile(t, 400)
	// Pick an inner associate and teleport it to the other side.
	var victim radio.NodeID = radio.None
	var from geom.Point
	for _, v := range nw.Snapshot().Nodes {
		if v.Status == StatusAssociate && !v.Candidate && v.Pos.Dist(geom.Point{}) < 150 {
			victim, from = v.ID, v.Pos
			break
		}
	}
	if victim == radio.None {
		t.Fatal("no inner associate")
	}
	to := geom.Point{X: -from.X, Y: -from.Y + 40}
	nw.Move(victim, to)
	runSweeps(nw, 3)

	v := nw.Node(victim)
	if v.Status != StatusAssociate {
		t.Fatalf("moved node status = %v", v.Status)
	}
	// Its head must now be local to the new position.
	if d := nw.Medium().Dist(victim, v.Head); d > cfg.SearchRadius() {
		t.Errorf("moved node still attached to a head %v away", d)
	}
}

func TestMovedHeadIsReplaced(t *testing.T) {
	nw, cfg := configureMobile(t, 400)
	h := someSmallHead(t, nw, 400, cfg.HeadSpacing())
	// Move the head beyond Rt of its IL: head shift must replace it.
	nw.Move(h.ID, h.IL.Add(geom.Vec{X: 3 * cfg.Rt, Y: 0}))
	runSweeps(nw, 3*SanityCheckEvery)

	snap := nw.Snapshot()
	replaced := false
	for _, v := range snap.Heads() {
		if v.ID != h.ID && v.IL.Dist(h.IL) <= cfg.Rt {
			replaced = true
		}
	}
	if !replaced {
		t.Error("no replacement head for the moved head's cell")
	}
	if v := nw.Node(h.ID); v.Status.IsHeadRole() && nw.Position(h.ID).Dist(v.IL) > cfg.Rt {
		t.Error("moved head kept serving a cell it left")
	}
}

func TestMoveDeadNodeIgnored(t *testing.T) {
	nw, _ := configureMobile(t, 300)
	id := nw.Snapshot().Nodes[2].ID
	nw.Kill(id)
	nw.Move(id, geom.Point{X: 1, Y: 1}) // no panic, no resurrection
	if nw.Alive(id) {
		t.Error("moving a dead node revived it")
	}
}

// TestNonFinitePositionsRejected pins two of the doors non-finite
// positions used to get through (AddNode, which Join relies on, is the
// third): for a NaN or infinite coordinate, in X or in Y, Join adds no
// node, counts no join and returns radio.None, and Move leaves the node
// where it is, with the topology epoch unmoved.
func TestNonFinitePositionsRejected(t *testing.T) {
	nw, _ := configureMobile(t, 300)
	var small radio.NodeID = radio.None
	for _, id := range nw.SortedIDs() {
		if id != nw.BigID() && nw.Alive(id) {
			small = id
			break
		}
	}
	for _, tc := range []struct {
		name string
		p    geom.Point
	}{
		{"NaN X", geom.Point{X: math.NaN(), Y: 10}},
		{"NaN Y", geom.Point{X: 10, Y: math.NaN()}},
		{"+Inf X", geom.Point{X: math.Inf(1), Y: 10}},
		{"-Inf X", geom.Point{X: math.Inf(-1), Y: 10}},
		{"+Inf Y", geom.Point{X: 10, Y: math.Inf(1)}},
		{"-Inf Y", geom.Point{X: 10, Y: math.Inf(-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, count, joins := len(nw.SortedIDs()), nw.Medium().Count(), nw.Metrics().Joins
			if id := nw.Join(tc.p); id != radio.None {
				t.Errorf("Join returned %d, want radio.None", id)
			}
			if got := len(nw.SortedIDs()); got != nodes {
				t.Errorf("Join added a node: %d IDs, want %d", got, nodes)
			}
			if got := nw.Medium().Count(); got != count {
				t.Errorf("Join placed a node: %d on the medium, want %d", got, count)
			}
			if got := nw.Metrics().Joins; got != joins {
				t.Errorf("Join counted a join: %d, want %d", got, joins)
			}
			for _, id := range []radio.NodeID{small, nw.BigID()} {
				pos, epoch := nw.Position(id), nw.Medium().Epoch()
				nw.Move(id, tc.p)
				if got := nw.Position(id); got != pos {
					t.Errorf("Move put node %d at %v, want it left at %v", id, got, pos)
				}
				if got := nw.Medium().Epoch(); got != epoch {
					t.Errorf("Move of node %d moved the topology epoch %d -> %d", id, epoch, got)
				}
			}
		})
	}
}
