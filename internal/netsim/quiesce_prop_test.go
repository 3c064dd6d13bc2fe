package netsim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// The quiescence cache is an optimization, never a semantics change:
// a cached run must be observably identical — snapshot, metrics, radio
// stats, virtual clock — to a brute-force run that recomputes every
// sweep, under any perturbation schedule. Clock and counters are
// compared after every engine event, because cache replays credit
// their counters once per sweep batch and an event that ends with
// credit still owed must fail right there; snapshots are compared at
// every sweep boundary. The property tests here pit the two builds
// against each other on randomized topologies and scripts.

// propStep is one scripted perturbation, applied identically to both
// builds right before the given sweep boundary. The closure may only
// consult state that is provably identical across the builds up to the
// point it runs (which the equality check at every boundary enforces).
type propStep struct {
	sweep int
	name  string
	apply func(s *Sim)
}

// randomScript draws a deterministic perturbation schedule: disk kills,
// grid repopulations, node moves, and head-state corruptions, all
// parameterized by data drawn up front so both builds see the same
// script.
func randomScript(opt Options, seed uint64, sweeps int) []propStep {
	src := rng.New(seed)
	randPoint := func(maxR float64) geom.Point {
		x, y := src.InDisk(maxR)
		return geom.Point{X: x, Y: y}
	}
	var script []propStep
	n := 3 + src.Intn(3)
	for i := 0; i < n; i++ {
		at := 2 + src.Intn(sweeps-4)
		switch src.Intn(4) {
		case 0:
			c := randPoint(opt.RegionRadius * 0.7)
			r := opt.Config.Rt * (0.5 + src.Float64())
			script = append(script, propStep{at, "kill", func(s *Sim) { s.KillDisk(c, r) }})
		case 1:
			c := randPoint(opt.RegionRadius * 0.7)
			r := opt.Config.Rt * (0.5 + src.Float64())
			sp := opt.Config.Rt * 0.8
			script = append(script, propStep{at, "join", func(s *Sim) { s.RepopulateDisk(c, r, sp) }})
		case 2:
			// Move the k-th alive small node to a drawn position. Both
			// builds have identical SortedIDs at the same boundary, so
			// index-based selection picks the same node in each.
			k := src.Intn(40)
			p := randPoint(opt.RegionRadius * 0.8)
			script = append(script, propStep{at, "move", func(s *Sim) {
				ids := s.Net.SortedIDs()
				for off := 0; off < len(ids); off++ {
					id := ids[(k+off)%len(ids)]
					if id != s.Net.BigID() && s.Net.Alive(id) {
						s.Net.Move(id, p)
						return
					}
				}
			}})
		default:
			c := randPoint(opt.RegionRadius * 0.7)
			r := opt.Config.Rt * (1 + src.Float64())
			kind := core.CorruptionKind(1 + src.Intn(3))
			delta := 1 + src.Float64()*5
			script = append(script, propStep{at, "corrupt", func(s *Sim) {
				s.CorruptDisk(c, r, kind, delta)
			}})
		}
	}
	return script
}

// withBlackouts adds to script a few direct radio blackouts, each
// restored three sweeps later: induced through Medium.SetBlackout, not
// the fault layer, because an active fault plan disables the cache
// entirely. A blacked-out node skips its sweeps, and its outage and
// restore move the epochs every neighbor's cache is stamped with.
func withBlackouts(script []propStep, seed uint64, sweeps int) []propStep {
	src := rng.New(seed ^ 0x9e3779b97f4a7c15)
	n := 2 + src.Intn(2)
	for i := 0; i < n; i++ {
		at := 2 + src.Intn(sweeps-6)
		k := src.Intn(40)
		script = append(script,
			propStep{at, "blackout", func(s *Sim) {
				ids := s.Net.SortedIDs()
				for off := 0; off < len(ids); off++ {
					id := ids[(k+off)%len(ids)]
					if id != s.Net.BigID() && s.Net.Alive(id) && !s.Net.Medium().InBlackout(id) {
						s.Net.Medium().SetBlackout(id, true)
						return
					}
				}
			}},
			propStep{at + 3, "restore", func(s *Sim) {
				for _, id := range s.Net.SortedIDs() {
					if s.Net.Medium().InBlackout(id) {
						s.Net.Medium().SetBlackout(id, false)
						return
					}
				}
			}},
		)
	}
	return script
}

// runCacheEquivalence drives a cached and an uncached build of opt in
// lock-step through the script, fails on the first divergence, and
// returns the cached build.
func runCacheEquivalence(t *testing.T, opt Options, variant core.Variant, script []propStep, sweeps int) *Sim {
	t.Helper()
	build := func(cache bool) *Sim {
		s, err := Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		s.Net.SetSweepCache(cache)
		if _, err := s.Configure(); err != nil {
			t.Fatal(err)
		}
		s.Net.StartMaintenance(variant)
		return s
	}
	cached := build(true)
	runLockstep(t, [2]string{"cached", "brute"}, cached, build(false), script, sweeps)
	return cached
}

// runLockstep drives two builds of the same scenario through the
// script, one engine event at a time, and fails on the first event
// (counters) or sweep boundary (epoch, snapshot) where any observable
// diverges. label names the two builds in failure messages.
func runLockstep(t *testing.T, label [2]string, a, b *Sim, script []propStep, sweeps int) {
	t.Helper()
	ae, be := a.Net.Engine(), b.Net.Engine()
	for i := 0; i < sweeps; i++ {
		for _, st := range script {
			if st.sweep == i {
				st.apply(a)
				st.apply(b)
			}
		}
		// One heartbeat, as RunSweeps(1) runs it, but event by event.
		deadline := ae.Now() + a.Opt.Config.HeartbeatInterval
		for ev := 0; ae.NextEventTime() <= deadline; ev++ {
			if !ae.Step() || !be.Step() {
				t.Fatalf("sweep %d event %d: %s build ran out of events", i, ev, label[1])
			}
			compareCounters(t, fmt.Sprintf("sweep %d event %d", i, ev), label, a, b)
		}
		if be.NextEventTime() <= deadline {
			t.Fatalf("sweep %d: %s build has events left before the boundary", i, label[1])
		}
		ae.RunUntil(deadline)
		be.RunUntil(deadline)
		compareCounters(t, fmt.Sprintf("sweep %d", i), label, a, b)

		if x, y := a.Net.Medium().Epoch(), b.Net.Medium().Epoch(); x != y {
			t.Fatalf("sweep %d: topology epoch diverged: %s %d, %s %d", i, label[0], x, label[1], y)
		}
		sa, sb := a.Net.Snapshot(), b.Net.Snapshot()
		if !sameBits(reflect.ValueOf(sa), reflect.ValueOf(sb)) {
			for j := range sa.Nodes {
				if j >= len(sb.Nodes) || !sameBits(reflect.ValueOf(sa.Nodes[j]), reflect.ValueOf(sb.Nodes[j])) {
					t.Fatalf("sweep %d: snapshot diverged at node index %d:\n%-7s%+v\n%-7s%+v",
						i, j, label[0], sa.Nodes[j], label[1], sb.Nodes[j])
				}
			}
			t.Fatalf("sweep %d: snapshot diverged (node count %d vs %d)",
				i, len(sa.Nodes), len(sb.Nodes))
		}
	}
}

// sameBits reports whether a and b hold the same values, comparing
// floats by their bits: reflect.DeepEqual finds two NaN positions
// unequal, however identical.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() || a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// compareCounters fails unless the two builds agree on virtual clock,
// protocol metrics and radio stats.
func compareCounters(t *testing.T, where string, label [2]string, a, b *Sim) {
	t.Helper()
	if x, y := a.Net.Engine().Now(), b.Net.Engine().Now(); x != y {
		t.Fatalf("%s: clock diverged: %s %v, %s %v", where, label[0], x, label[1], y)
	}
	if x, y := a.Net.Metrics(), b.Net.Metrics(); x != y {
		t.Fatalf("%s: metrics diverged:\n%-7s%+v\n%-7s%+v", where, label[0], x, label[1], y)
	}
	if x, y := a.Net.Medium().Stats(), b.Net.Medium().Stats(); x != y {
		t.Fatalf("%s: radio stats diverged:\n%-7s%+v\n%-7s%+v", where, label[0], x, label[1], y)
	}
}

// TestCachedSweepMatchesBruteForce is the main property: across
// randomized grid topologies and perturbation schedules — kills,
// joins, moves, corruptions and blackouts — the cached build is
// event-for-event identical to the no-cache build.
func TestCachedSweepMatchesBruteForce(t *testing.T) {
	const sweeps = 30
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opt := DefaultOptions(100, 280)
			opt.Seed = seed
			opt.GridJitter = 0.1 + 0.05*float64(seed%3)
			script := withBlackouts(randomScript(opt, seed*13+5, sweeps), seed*13+5, sweeps)
			runCacheEquivalence(t, opt, core.VariantD, script, sweeps)
		})
	}
}

// TestCachedSweepMatchesBruteForceMobile exercises Variant M: the big
// node relocates mid-run (BIG_SLIDE / BIG_MOVE paths) on top of a
// perturbation script.
func TestCachedSweepMatchesBruteForceMobile(t *testing.T) {
	const sweeps = 30
	opt := DefaultOptions(100, 280)
	opt.Seed = 3
	script := withBlackouts(randomScript(opt, 99, sweeps), 99, sweeps)
	script = append(script,
		propStep{5, "big-slide", func(s *Sim) {
			p := s.Net.Position(s.Net.BigID())
			s.Net.Move(s.Net.BigID(), p.Add(geom.Vec{X: opt.Config.Rt * 0.8}))
		}},
		propStep{14, "big-move", func(s *Sim) {
			s.Net.Move(s.Net.BigID(), geom.Point{X: -120, Y: 90})
		}},
	)
	runCacheEquivalence(t, opt, core.VariantM, script, sweeps)
}

// TestCachedSweepMatchesBruteForceFaults proves the cache gate: with an
// active fault plan the cache must disable itself, so both builds stay
// identical even though replaying recorded deltas would be unsound
// under loss and blackouts.
func TestCachedSweepMatchesBruteForceFaults(t *testing.T) {
	const sweeps = 25
	opt := DefaultOptions(100, 260)
	opt.Seed = 11
	opt.Faults = fault.Plan{
		Loss:           0.05,
		BlackoutRate:   0.01,
		BlackoutSweeps: 2,
	}
	script := randomScript(opt, 77, sweeps)
	runCacheEquivalence(t, opt, core.VariantD, script, sweeps)
}

// TestCachedSweepMatchesBruteForceEnergy turns on the duty-cycle energy
// model (no per-send costs, which would disable the cache): heads drain
// five times faster, retreat when low, and nodes die at sweep
// boundaries, in the middle of batches full of replays.
func TestCachedSweepMatchesBruteForceEnergy(t *testing.T) {
	const sweeps = 30
	opt := DefaultOptions(100, 320)
	opt.Seed = 17
	opt.Config.InitialEnergy = 60
	script := withBlackouts(randomScript(opt, 23, sweeps), 23, sweeps)
	runCacheEquivalence(t, opt, core.VariantD, script, sweeps)
}

// TestCachedSweepMatchesBruteForceObstacle runs the equivalence on an
// occluded field, where the structure heals around a non-convex wall.
func TestCachedSweepMatchesBruteForceObstacle(t *testing.T) {
	const sweeps = 25
	opt := DefaultOptions(100, 320)
	opt.Seed = 29
	opt.Obstacles = []field.Obstacle{
		{{X: 30, Y: -140}, {X: 90, Y: -140}, {X: 90, Y: 50}, {X: -100, Y: 50},
			{X: -100, Y: 110}, {X: 30, Y: 110}},
	}
	script := withBlackouts(randomScript(opt, 31, sweeps), 31, sweeps)
	runCacheEquivalence(t, opt, core.VariantD, script, sweeps)
}

// TestCachedSweepMatchesBruteForceKillDisk pins the healing story end
// to end: a converged field loses a search-radius disk of nodes
// mid-maintenance and re-heals, with healing sweeps and replays
// interleaved in the same batches.
func TestCachedSweepMatchesBruteForceKillDisk(t *testing.T) {
	const sweeps = 40
	opt := DefaultOptions(100, 320)
	opt.Seed = 5
	c := geom.Point{X: opt.RegionRadius * 0.4, Y: 0}
	script := []propStep{
		{8, "disaster", func(s *Sim) { s.KillDisk(c, opt.Config.SearchRadius()) }},
	}
	runCacheEquivalence(t, opt, core.VariantD, script, sweeps)
}

// TestCachedSweepMatchesBruteForceFarChild strands a child head: its
// associates die and it is carried out into empty space, beyond its
// parent's search radius but inside the parent's 2·SR+Rt cone, where no
// head can reach it. The parent, which sweeps first in each heartbeat,
// drops it as a neighbour but keeps it as a child; the child then
// abandons its empty cell. The parent's next body drops the lost child
// without rewriting its Neighbors, so only the touch after a lost child
// keeps that body out of the cache and lets the repair a heartbeat later
// run. The strike comes at each phase of the parent's rescan cycle.
func TestCachedSweepMatchesBruteForceFarChild(t *testing.T) {
	for at := 4; at < 9; at++ {
		t.Run(fmt.Sprintf("at%d", at), func(t *testing.T) {
			opt := DefaultOptions(100, 400)
			opt.Seed = 3
			sr := opt.Config.SearchRadius()
			child, parent := radio.None, radio.None
			strand := func(s *Sim) {
				snap := s.Net.Snapshot()
				big := s.Net.Position(snap.BigID)
				var h core.NodeView
				for _, v := range snap.Heads() {
					if p, ok := snap.View(v.Parent); ok && !p.IsBig && p.ID%17 < v.ID%17 && v.Pos.Dist(big) > h.Pos.Dist(big) {
						h = v
					}
				}
				p, _ := snap.View(h.Parent)
				out := h.Pos.Sub(big).Scale(1 / h.Pos.Dist(big))
				for step := 0.0; ; step += opt.Config.Rt / 2 {
					target := h.Pos.Add(out.Scale(step))
					lone := true
					for _, o := range snap.Heads() {
						lone = lone && (o.ID == h.ID || o.Pos.Dist(target) > 1.25*sr)
					}
					if !lone {
						continue
					}
					if d := target.Dist(p.Pos); d > 2*sr {
						t.Fatalf("head %d: first lone point %v is %.1f from parent %d, beyond 2·SR = %.1f", h.ID, target, d, p.ID, 2*sr)
					}
					for _, m := range snap.Members(h.ID) {
						s.Net.Kill(m)
					}
					child, parent = h.ID, p.ID
					s.Net.Move(h.ID, target)
					return
				}
			}
			script := []propStep{
				{at, "strand", strand},
				{at + 1, "abandoned", func(s *Sim) {
					snap := s.Net.Snapshot()
					v, _ := snap.View(child)
					p, _ := snap.View(parent)
					if v.IsHead() || !slices.Contains(p.Children, child) || slices.Contains(p.Neighbors, child) {
						t.Fatalf("head %d did not become a lost child of %d outside its search radius: %+v, parent %+v", child, parent, v, p)
					}
				}},
			}
			runCacheEquivalence(t, opt, core.VariantM, script, at+6)
		})
	}
}

// TestCachedSweepMatchesBruteForceWildNodes joins a node at, and moves
// nodes to, (1e300, 1e300) on a settled GS³-M field; the joins at and
// moves to NaN and +Inf in the same script are refused, and change
// nothing. The cached build must match the uncached one throughout, and
// the field must reach the dynamic fixpoint around the wild node.
func TestCachedSweepMatchesBruteForceWildNodes(t *testing.T) {
	const sweeps = 20
	opt := DefaultOptions(100, 280)
	opt.Seed = 7
	wild := []geom.Point{{X: math.NaN(), Y: 0}, {X: math.Inf(1), Y: 0}, {X: 1e300, Y: 1e300}}
	script := []propStep{
		{3, "join-wild", func(s *Sim) {
			for _, p := range wild {
				s.Net.Join(p)
			}
		}},
		{6, "move-wild", func(s *Sim) {
			ids := s.Net.SortedIDs()
			for i, p := range wild {
				s.Net.Move(ids[len(ids)/2+7*i], p)
			}
		}},
	}
	s := runCacheEquivalence(t, opt, core.VariantM, script, sweeps)
	if r := check.Fixpoint(s.Net.Snapshot(), check.Dynamic); !r.OK() {
		t.Errorf("not at the dynamic fixpoint after %d sweeps: %v", sweeps, r.Violations)
	}
}

// lateHeads returns the settled snapshot's small-node heads that sweep
// late in their heartbeat (phase ID mod 17 of at least 12, see
// StartMaintenance), so most of their associates sweep before them.
func lateHeads(snap core.Snapshot) []core.NodeView {
	var out []core.NodeView
	for _, h := range snap.Heads() {
		if !h.IsBig && h.ID%17 >= 12 {
			out = append(out, h)
		}
	}
	return out
}

// TestCachedSweepMatchesBruteForceCorruptIL displaces the IL of a
// settled head, a head write that flips no role, once both sweep-cache
// flavors are recorded. The head sweeps late in its heartbeat, and one
// of its candidates, which sweeps earlier, lies more than Rt from the
// displaced IL: that associate's next sweep must see the IL move and
// drop its candidacy in the cached build as in the brute one, before
// the head's own sweep touches the cell. Only a corruption that moves
// the associate view lets it.
func TestCachedSweepMatchesBruteForceCorruptIL(t *testing.T) {
	opt := DefaultOptions(100, 320)
	opt.Seed = 9
	rt := opt.Config.Rt
	at := 2*opt.Config.BoundaryRescanEvery + 1
	corrupt := func(s *Sim) {
		snap := s.Net.Snapshot()
		for _, h := range lateHeads(snap) {
			il := h.IL.Add(geom.UnitAt(float64(h.ID)).Scale(rt)) // as Corrupt displaces it
			for _, m := range snap.Members(h.ID) {
				if v, _ := snap.View(m); v.Candidate && m%17 < h.ID%17 && v.Pos.Dist(il) > rt {
					s.Net.Corrupt(h.ID, core.CorruptIL, rt)
					return
				}
			}
		}
		t.Fatal("no late head has an earlier-sweeping candidate that its displaced IL leaves behind")
	}
	runCacheEquivalence(t, opt, core.VariantD, []propStep{{at, "corrupt-il", corrupt}}, at+4)
}

// TestCachedSweepMatchesBruteForceCellShift kills every candidate of a
// settled late-sweeping head once both sweep-cache flavors are
// recorded, so that head's next sweep finds its candidate set empty
// and shifts the cell (STRENGTHEN_CELL): it moves the IL along the
// spiral and hands the head role to the best member near the new IL,
// while the cell's other associates hold caches recorded against the
// old IL and head.
func TestCachedSweepMatchesBruteForceCellShift(t *testing.T) {
	opt := DefaultOptions(100, 320)
	opt.Seed = 9
	at := 2*opt.Config.BoundaryRescanEvery + 1
	var shifts uint64
	empty := func(s *Sim) {
		snap := s.Net.Snapshot()
		for _, h := range lateHeads(snap) {
			var cands []radio.NodeID
			others := 0
			for _, m := range snap.Members(h.ID) {
				if v, _ := snap.View(m); v.Candidate {
					cands = append(cands, m)
				} else {
					others++
				}
			}
			if len(cands) == 0 || others < 3 {
				continue
			}
			for _, id := range cands {
				s.Net.Kill(id)
			}
			shifts = s.Net.Metrics().CellShifts
			return
		}
		t.Fatal("no late head has both candidates and three other associates")
	}
	shifted := func(s *Sim) {
		if s.Net.Metrics().CellShifts == shifts {
			t.Fatal("the emptied cell did not shift")
		}
	}
	script := []propStep{{at, "empty-cell", empty}, {at + 1, "shifted", shifted}}
	runCacheEquivalence(t, opt, core.VariantD, script, at+5)
}

// TestCachedSweepMatchesBruteForceBigChild kills a child head of the
// big node once both sweep-cache flavors are recorded, so the big
// node's own sweeps rewrite its Children and Neighbors (dropping the
// dead child, then adopting the cell's new head) while the heads
// around it hold warm caches. A rewrite of the big node's links is
// reported like any other head's, to the heads whose cone covers it.
// No other node's sweep reads those two lists, so a build that reports
// nothing for them passes here too; TestCachedSweepMatchesBruteForceBigHops
// covers the link another sweep reads. The strike comes at each phase
// of the big node's rescan cycle.
func TestCachedSweepMatchesBruteForceBigChild(t *testing.T) {
	opt := DefaultOptions(100, 320)
	opt.Seed = 9
	first := 2*opt.Config.BoundaryRescanEvery + 1
	for at := first; at < first+opt.Config.BoundaryRescanEvery; at++ {
		t.Run(fmt.Sprintf("at%d", at), func(t *testing.T) {
			child := radio.None
			kill := func(s *Sim) {
				big, _ := s.Net.Snapshot().View(s.Net.BigID())
				if len(big.Children) == 0 {
					t.Fatal("the big node has no child head")
				}
				child = big.Children[0]
				s.Net.Kill(child)
			}
			dropped := func(s *Sim) {
				if big, _ := s.Net.Snapshot().View(s.Net.BigID()); slices.Contains(big.Children, child) {
					t.Fatalf("the big node still lists its dead child %d: %v", child, big.Children)
				}
			}
			script := []propStep{{at, "kill-big-child", kill}, {at + 1, "dropped", dropped}}
			runCacheEquivalence(t, opt, core.VariantD, script, at+6)
		})
	}
}

// TestCachedSweepMatchesBruteForceBigHops raises every head's hop
// count by one, the big node's to 1, once both sweep-cache flavors are
// recorded: the structure stays consistent everywhere but at the big
// node. On this field every child head of the big node sweeps before
// it in the next heartbeat, finds its count consistent with its
// parent's, and records its sweep as a no-op. The big node's sweep then
// restores its own count to 0, a write to its links and the only write
// of that heartbeat near its children, so only that write can
// invalidate their caches and let their next sweeps drop their counts
// to 1. A head's ParentSeek, which reads its neighbors' Hops, is where a
// sweep reads another node's links.
func TestCachedSweepMatchesBruteForceBigHops(t *testing.T) {
	opt := DefaultOptions(100, 320)
	opt.Seed = 1
	at := 2*opt.Config.BoundaryRescanEvery + 1
	corrupt := func(s *Sim) {
		for _, h := range s.Net.Snapshot().Heads() {
			s.Net.Corrupt(h.ID, core.CorruptHops, float64(h.Hops+1))
		}
	}
	hops := func(want int) func(s *Sim) {
		return func(s *Sim) {
			snap := s.Net.Snapshot()
			big, _ := snap.View(s.Net.BigID())
			if big.Hops != 0 {
				t.Fatalf("the big node holds %d hops, want 0", big.Hops)
			}
			for _, c := range big.Children {
				if v, _ := snap.View(c); v.Hops != want {
					t.Fatalf("child head %d of the big node holds %d hops, want %d", c, v.Hops, want)
				}
			}
		}
	}
	script := []propStep{{at, "raise-hops", corrupt}, {at + 1, "restored", hops(2)}, {at + 2, "healed", hops(1)}}
	runCacheEquivalence(t, opt, core.VariantD, script, at+5)
}
