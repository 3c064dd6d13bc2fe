package core

import (
	"slices"
	"testing"

	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
	"gs3/internal/trace"
)

// fanOutField is one deployment for the fan-out differential test.
// blackout, when set, is called after every engine step (with the heads
// that step selected) and before the rescan cycle (with every head),
// and may black nodes out.
type fanOutField struct {
	dep       field.Deployment
	obstacles []field.Obstacle
	blackout  func(nw *Network, heads []radio.NodeID)
}

func fanOutFields(t *testing.T) map[string]fanOutField {
	t.Helper()
	cfg := DefaultConfig(100)
	grid := func(radius float64) field.Deployment {
		dep, err := field.Grid(radius, cfg.Rt*0.9, 0.15, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	poisson, err := field.Poisson(field.Config{Radius: 350, Lambda: 0.01}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// An L-shaped wall off-center: non-convex occlusion with nodes on
	// every side of it.
	wall := []field.Obstacle{{{X: 40, Y: -160}, {X: 110, Y: -160}, {X: 110, Y: 60}, {X: -120, Y: 60},
		{X: -120, Y: 130}, {X: 40, Y: 130}}}
	// The blackout field blacks out every tenth node once the root's
	// HEAD_ORG has run, then a third of the heads as they are selected,
	// so gathers hold heads no receiver may hear.
	blackDep := grid(350)
	src := rng.New(3)
	blackout := func(nw *Network, heads []radio.NodeID) {
		if nw.med.Stats().Blackouts == 0 {
			for id := radio.NodeID(1); int(id) < blackDep.N(); id += 10 {
				nw.med.SetBlackout(id, true)
			}
		}
		for _, id := range heads {
			if id != nw.BigID() && src.Intn(3) == 0 {
				nw.med.SetBlackout(id, true)
			}
		}
	}
	return map[string]fanOutField{
		"grid":     {dep: grid(350)},
		"poisson":  {dep: poisson},
		"obstacle": {dep: field.WithObstacles(grid(380), wall), obstacles: wall},
		"blackout": {dep: blackDep, blackout: blackout},
		"ties":     {dep: mirroredField(grid(350))},
	}
}

// mirroredField is dep made mirror-symmetric about the y axis, plus a
// node every 5 units along the axis: the big node stays at the origin,
// every node right of the axis gets its mirror image at exactly −x, and
// the rest are dropped. Mirrored heads sit at (±x, y), so an axis node
// is exactly equidistant from both, by Hypot as by Dist2: its offsets
// to them differ only in sign.
func mirroredField(dep field.Deployment) field.Deployment {
	out := field.Deployment{Positions: []geom.Point{{}}}
	for _, p := range dep.Positions {
		if p.X > 1 {
			out.Positions = append(out.Positions, p, geom.Point{X: -p.X, Y: p.Y})
		}
	}
	for y := -340.0; y <= 340; y += 5 {
		if y != 0 {
			out.Positions = append(out.Positions, geom.Point{Y: y})
		}
	}
	return out
}

// fanOutPower counts the (receiver, head) pairs a wrong fan-out would
// get wrong, so the test can prove it exercised them: heads a receiver
// hears beyond SR+Rt of the org head (a gather of radius SR+Rt misses
// them), heads within SR of the receiver that an obstacle hides from
// it but not from the org head or vice versa (occlusion tested from
// the wrong end), and in-range blacked-out heads. tied counts receivers
// whose band of the nearest head held more than one head, so that
// BestCandidate, not the band, had to decide.
type fanOutPower struct {
	receivers, far, occlusionSplit, blackedOut, tied int
}

// checkFanOut compares, for every small node within broadcast range of
// head org, the ASSOCIATE_ORG_RESP decision the fan-out makes from org's
// head gather (headsHeard, then headChoice) with the one ChooseHead's
// per-node query implies: the head BestCandidate picks over
// reachableHeadsAt(p, SR), or bootup when there is none, and candidacy
// by Hypot against Rt.
func checkFanOut(t *testing.T, nw *Network, org radio.NodeID, pw *fanOutPower) {
	t.Helper()
	cfg := nw.cfg
	sr := cfg.SearchRadius()
	orgPos := nw.Position(org)
	gather := nw.gatherHeads(org)
	for _, rid := range nw.med.WithinRangeAppend(nil, orgPos, sr+cfg.Rt, org) {
		if nw.chooser(rid) == nil {
			continue
		}
		p := nw.Position(rid)
		band := slices.Clone(nw.headsHeard(gather, p, sr*sr, nw.med.Obstacles()))
		head, cand := nw.headChoice(p, band)
		heard := slices.Clone(nw.reachableHeadsAt(p, sr))
		want, ok := BestCandidate(p, cfg.GR, heard, nw.Position)
		if !ok {
			want = radio.None
		}
		wantCand := ok && p.Dist(nw.node(want).IL) <= cfg.Rt
		if head != want || cand != wantCand {
			t.Fatalf("HEAD_ORG of %d, receiver %d at %v: fan-out chose %d (candidate %v) from band %v, per-node query %d (candidate %v) from %v",
				org, rid, p, head, cand, band, want, wantCand, heard)
		}
		pw.receivers++
		if len(band) > 1 {
			pw.tied++
		}
		for _, hid := range heard {
			if nw.Position(hid).Dist(orgPos) > sr+cfg.Rt {
				pw.far++
			}
		}
		for _, hid := range nw.med.HeadsWithinDisk(nil, p, sr) {
			hp := nw.Position(hid)
			if nw.med.InBlackout(hid) {
				pw.blackedOut++
			}
			if obs := nw.med.Obstacles(); geom.AnyOccludes(obs, p, hp) != geom.AnyOccludes(obs, orgPos, hp) {
				pw.occlusionSplit++
			}
		}
	}
}

// TestHeadsHeardKeepsHypotTies: the band around the nearest head keeps
// a head whose squared distance is an ulp larger when Hypot ties it
// with the nearest, so that BestCandidate's angle rule can still pick
// it, and drops a head surely farther. Head 2 at (5, 5e-8) has
// Dist2 = 25 + ulp(25) but Hypot 5, like head 1 at (3, 4); with GR = 0
// its |A| is smaller, so BestCandidate over all three picks head 2.
func TestHeadsHeardKeepsHypotTies(t *testing.T) {
	cfg := DefaultConfig(100)
	nw, err := NewNetwork(cfg, testRadioParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{}
	gather := []gatheredHead{{1, geom.Point{X: 3, Y: 4}}, {2, geom.Point{X: 5, Y: 5e-8}}, {3, geom.Point{X: 6}}}
	if a, b := gather[0].pos, gather[1].pos; a.Dist2(p) >= b.Dist2(p) || a.Dist(p) != b.Dist(p) {
		t.Fatalf("heads 1 and 2: Dist2 %v, %v and Hypot %v, %v; want a smaller Dist2 and equal Hypot", a.Dist2(p), b.Dist2(p), a.Dist(p), b.Dist(p))
	}
	at := func(id radio.NodeID) geom.Point { return gather[id-1].pos }
	if best, _ := BestCandidate(p, 0, []radio.NodeID{1, 2, 3}, at); best != 2 {
		t.Fatalf("BestCandidate over all three = %d, want 2", best)
	}
	sr := cfg.SearchRadius()
	if got := nw.headsHeard(gather, p, sr*sr, nil); !slices.Equal(got, []radio.NodeID{1, 2}) {
		t.Errorf("headsHeard = %v, want [1 2]", got)
	}
}

// TestFanOutMatchesPerReceiverQuery is the differential test of the
// ASSOCIATE_ORG_RESP fan-out. For every HEAD_ORG of a configure and of
// one rescan cycle over every head, on grid, Poisson, obstacle,
// blackout and mirrored-tie fields, each receiver's decision from the
// org head's single gather — chosen head, candidacy, bootup — must equal
// the decision the per-node head query it replaces implies.
func TestFanOutMatchesPerReceiverQuery(t *testing.T) {
	for name, f := range fanOutFields(t) {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(100)
			nw, err := NewNetwork(cfg, testRadioParams(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if len(f.obstacles) > 0 {
				nw.med.SetObstacles(f.obstacles)
			}
			for i, p := range f.dep.Positions {
				if _, err := nw.AddNode(p, i == 0); err != nil {
					t.Fatal(err)
				}
			}
			var pw fanOutPower
			orgs := 0
			// run steps the engine to quiescence, checking after each
			// HEAD_ORG: the fan-out is its last head-set read, so the
			// head set is still the one the fan-out saw.
			run := func() {
				for {
					log := trace.NewLog(64)
					nw.SetTracer(log)
					if !nw.Engine().Step() {
						return
					}
					var selected []radio.NodeID
					for _, ev := range log.Events() {
						switch ev.Kind {
						case trace.KindHeadOrg:
							checkFanOut(t, nw, ev.Node, &pw)
							orgs++
						case trace.KindHeadSelected:
							selected = append(selected, ev.Node)
						}
					}
					if f.blackout != nil {
						f.blackout(nw, selected)
					}
				}
			}
			if err := nw.StartConfiguration(); err != nil {
				t.Fatal(err)
			}
			run()
			nw.SetTracer(nil)

			var heads []radio.NodeID
			for _, id := range nw.SortedIDs() {
				if n := nw.node(id); nw.Alive(id) && n.Status.IsHeadRole() {
					heads = append(heads, id)
				}
			}
			if f.blackout != nil {
				f.blackout(nw, heads)
			}
			for _, id := range heads {
				nw.RescanAround(id)
				checkFanOut(t, nw, id, &pw)
				orgs++
			}
			run() // HEAD_ORGs of any cells the rescans created

			t.Logf("%d HEAD_ORGs, %+v", orgs, pw)
			if pw.far == 0 {
				t.Error("no receiver heard a head beyond SR+Rt of the org head")
			}
			if len(f.obstacles) > 0 && pw.occlusionSplit == 0 {
				t.Error("no head was occluded differently from receiver and org head")
			}
			if f.blackout != nil && pw.blackedOut == 0 {
				t.Error("no blacked-out head was in range of a receiver")
			}
			if name == "ties" && pw.tied == 0 {
				t.Error("no receiver's band of the nearest head held two heads")
			}
		})
	}
}
