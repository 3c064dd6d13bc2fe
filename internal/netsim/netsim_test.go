package netsim

import (
	"errors"
	"testing"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/field"
	"gs3/internal/gather"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/traffic"
)

func buildConfigured(t *testing.T, regionRadius float64) *Sim {
	t.Helper()
	s, err := Build(DefaultOptions(100, regionRadius))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildGrid(t *testing.T) {
	s, err := Build(DefaultOptions(100, 300))
	if err != nil {
		t.Fatal(err)
	}
	if s.Net.Medium().Count() < 100 {
		t.Errorf("only %d nodes", s.Net.Medium().Count())
	}
	if s.Net.BigID() != 0 {
		t.Errorf("big node id = %d", s.Net.BigID())
	}
}

func TestBuildPoisson(t *testing.T) {
	opt := DefaultOptions(100, 300)
	opt.GridSpacing = 0
	opt.Lambda = 0.01
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Net.Medium().Count() < 2 {
		t.Error("empty Poisson deployment")
	}
}

func TestBuildNoDeployment(t *testing.T) {
	opt := DefaultOptions(100, 300)
	opt.GridSpacing = 0
	opt.Lambda = 0
	if _, err := Build(opt); err == nil {
		t.Error("no-deployment options accepted")
	}
}

func TestBuildWithGaps(t *testing.T) {
	opt := DefaultOptions(100, 300)
	opt.Gaps = []field.Gap{{Center: geom.Point{X: 150, Y: 0}, Radius: 40}}
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.Net.SortedIDs() {
		if id == s.Net.BigID() {
			continue
		}
		p, _ := s.Net.Medium().Position(id)
		if p.Dist(geom.Point{X: 150, Y: 0}) < 40 {
			t.Errorf("node %d inside gap", id)
		}
	}
}

// Build must take its own copy of Gaps: mutating the caller's slice
// afterwards may not leak into the built Sim.
func TestBuildCopiesGaps(t *testing.T) {
	gaps := []field.Gap{{Center: geom.Point{X: 150, Y: 0}, Radius: 40}}
	opt := DefaultOptions(100, 300)
	opt.Gaps = gaps
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	gaps[0] = field.Gap{Center: geom.Point{}, Radius: 1e9}
	if s.Opt.Gaps[0].Radius != 40 {
		t.Fatalf("Sim sees caller's mutation: gap radius %v, want 40", s.Opt.Gaps[0].Radius)
	}
}

func TestConfigureReachesFixpoint(t *testing.T) {
	s := buildConfigured(t, 350)
	if !check.Fixpoint(s.Net.Snapshot(), check.Static).OK() {
		t.Error("configuration did not reach the static fixpoint")
	}
}

func TestConfigureTimePositive(t *testing.T) {
	s, err := Build(DefaultOptions(100, 350))
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := s.Configure()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Errorf("elapsed = %v", elapsed)
	}
}

func TestRunToFixpointImmediate(t *testing.T) {
	s := buildConfigured(t, 350)
	s.Net.StartMaintenance(core.VariantD)
	elapsed, err := s.RunToFixpoint(check.Static, 30)
	if err != nil {
		t.Fatalf("no convergence: %v", err)
	}
	if elapsed < 0 {
		t.Errorf("elapsed = %v", elapsed)
	}
}

func TestKillDiskAndHealToStable(t *testing.T) {
	s := buildConfigured(t, 400)
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(2)

	c := geom.Point{X: 170, Y: 100}
	killed := s.KillDisk(c, 60)
	if killed == 0 {
		t.Fatal("nothing killed")
	}
	if _, err := s.RunUntilStable(40); err != nil {
		t.Fatalf("did not re-stabilize: %v", err)
	}
}

// A kill centered near the origin shifts the big node's cell IL away,
// driving the big node into BIG_SLIDE. The head that took over its
// cell must then root the head graph (distance 0): without that root
// ParentSeek has no distance-0 anchor and counts to infinity, so head
// hops inflate every sweep and I1.2 never holds again.
func TestBigSlideKeepsRootedTree(t *testing.T) {
	opt := DefaultOptions(100, 300)
	opt.Seed = 9
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.KillDisk(geom.Point{X: 30, Y: -20}, 60)
	s.RunSweeps(1)
	big, _ := s.Net.Snapshot().View(s.Net.BigID())
	if big.Status != core.StatusBigSlide {
		t.Fatalf("scenario no longer triggers BIG_SLIDE (big status %v)", big.Status)
	}
	// With a rooted tree, hops settle at the graph radius (a handful);
	// a rootless tree inflates them by ~1 per sweep.
	s.RunSweeps(12)
	snap := s.Net.Snapshot()
	bound := len(snap.Heads())
	for _, h := range snap.Heads() {
		if h.Hops > bound {
			t.Errorf("head %d hops %d > %d: tree is rootless during the slide", h.ID, h.Hops, bound)
		}
	}
	if _, err := s.RunUntilStable(40); err != nil {
		t.Fatalf("did not re-stabilize: %v", err)
	}
}

// TestBigSlideRootServesGatherAndTraffic pins the one root rule on the
// BIG_SLIDE field above: while the big node has ceded its head role,
// the head of its cell roots the tree for the protocol, for a snapshot
// (Snapshot.Root) and for the live network (RootHead). A gather drains
// through that head, and every convergecast packet is delivered there.
func TestBigSlideRootServesGatherAndTraffic(t *testing.T) {
	opt := DefaultOptions(100, 300)
	opt.Seed = 9
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.KillDisk(geom.Point{X: 30, Y: -20}, 60)
	s.RunSweeps(13)
	snap := s.Net.Snapshot()
	big, _ := snap.View(s.Net.BigID())
	if big.Status != core.StatusBigSlide {
		t.Fatalf("scenario no longer holds BIG_SLIDE (big status %v)", big.Status)
	}
	if root := s.Net.RootHead(); root == radio.None || root != big.Head || root != snap.Root() {
		t.Fatalf("RootHead %d, Snapshot.Root %d, want the big node's cell head %d", root, snap.Root(), big.Head)
	}

	readings := make(map[radio.NodeID]float64, len(snap.Nodes))
	for _, v := range snap.Nodes {
		readings[v.ID] = 1
	}
	if _, err := gather.Collect(snap, readings); err != nil {
		t.Fatalf("Collect during BIG_SLIDE: %v", err)
	}

	plane, err := s.ServeTraffic(traffic.Config{Packets: 500, Rate: 200, P2PFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rep := plane.Run()
	if rep.Generated != 500 || rep.Delivered != rep.Generated {
		t.Fatalf("delivered %d of %d (lost: noroute=%d hopfail=%d ttl=%d expired=%d)",
			rep.Delivered, rep.Generated, rep.LostNoRoute, rep.LostHopFail, rep.LostTTL, rep.Expired)
	}
}

func TestRepopulateDisk(t *testing.T) {
	s := buildConfigured(t, 400)
	s.Net.StartMaintenance(core.VariantD)
	c := geom.Point{X: 150, Y: -80}
	s.KillDisk(c, 70)
	ids := s.RepopulateDisk(c, 70, s.Opt.Config.Rt*0.9)
	if len(ids) < 10 {
		t.Fatalf("only %d repopulated", len(ids))
	}
	if _, err := s.RunUntilStable(60); err != nil {
		t.Fatalf("repopulated region did not stabilize: %v", err)
	}
	// All the new nodes are covered now.
	for _, id := range ids {
		st := s.Net.Node(id).Status
		if st == core.StatusBootup {
			t.Errorf("repopulated node %d still bootup", id)
		}
	}
}

func TestCorruptDiskHeals(t *testing.T) {
	s := buildConfigured(t, 400)
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(2)
	// Center the corruption on an actual head so the disk is never
	// empty regardless of where the lattice landed.
	var at geom.Point
	for _, h := range s.Net.Snapshot().Heads() {
		if !h.IsBig {
			at = h.Pos
			break
		}
	}
	n := s.CorruptDisk(at, 100, core.CorruptIL, 3*s.Opt.Config.Rt)
	if n == 0 {
		t.Fatal("nothing corrupted")
	}
	if _, err := s.RunUntilStable(25 * core.SanityCheckEvery); err != nil {
		t.Fatalf("corruption did not heal: %v", err)
	}
}

func TestHealingLocality(t *testing.T) {
	// Healing a single head death changes the structure only near the
	// dead cell — the locality claim of §4.3.5.2.
	s := buildConfigured(t, 500)
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(2)

	var victim core.NodeView
	for _, h := range s.Net.Snapshot().Heads() {
		if !h.IsBig && h.Pos.Dist(geom.Point{}) < 250 {
			victim = h
			break
		}
	}
	before := s.Net.Snapshot()
	s.Net.Kill(victim.ID)
	if _, err := s.RunUntilStable(20); err != nil {
		t.Fatalf("no stabilization: %v", err)
	}
	limit := s.Opt.Config.SearchRadius() + s.Opt.Config.HeadSpacing()
	for _, id := range StructureDiff(before, s.Net.Snapshot()) {
		if id == victim.ID {
			continue
		}
		v, ok := s.Net.Snapshot().View(id)
		if !ok {
			continue
		}
		if d := v.Pos.Dist(victim.Pos); d > limit {
			t.Errorf("head %d at distance %.0f from the perturbation changed (limit %.0f)", id, d, limit)
		}
	}
}

func TestStableQuickDetectsBootup(t *testing.T) {
	s := buildConfigured(t, 300)
	if !s.StableQuick() {
		t.Fatal("configured network not stable")
	}
	s.Net.Join(geom.Point{X: 300 + 3*s.Opt.Config.SearchRadius(), Y: 0})
	if s.StableQuick() {
		t.Error("bootup straggler not detected")
	}
}

func TestRunToFixpointTimeout(t *testing.T) {
	s := buildConfigured(t, 300)
	// A node stranded out of range never converges to F4... but F4 only
	// covers connected nodes, so strand one *connected* bootup instead:
	// park a node just inside range of the boundary with maintenance
	// off, so nobody re-chooses for it.
	s.Net.Join(geom.Point{X: 300 + 0.9*s.Opt.Config.SearchRadius(), Y: 0})
	_, err := s.RunToFixpoint(check.Static, 0)
	if err == nil {
		t.Skip("straggler converged immediately")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v", err)
	}
}

func TestStructureDiff(t *testing.T) {
	s := buildConfigured(t, 350)
	before := s.Net.Snapshot()
	if d := StructureDiff(before, s.Net.Snapshot()); len(d) != 0 {
		t.Errorf("diff of identical snapshots = %v", d)
	}
	// Kill a head and heal: the diff must mention the changed cells.
	s.Net.StartMaintenance(core.VariantD)
	var victim radio.NodeID
	for _, h := range before.Heads() {
		if !h.IsBig {
			victim = h.ID
			break
		}
	}
	s.Net.Kill(victim)
	s.RunSweeps(6)
	d := StructureDiff(before, s.Net.Snapshot())
	if len(d) == 0 {
		t.Error("healing produced an empty diff")
	}
}

func TestMeanCellSize(t *testing.T) {
	s := buildConfigured(t, 350)
	if m := s.MeanCellSize(); m < 1 {
		t.Errorf("mean cell size = %v", m)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() int {
		s, err := Build(DefaultOptions(100, 300))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Configure(); err != nil {
			t.Fatal(err)
		}
		return len(s.Net.Snapshot().Heads())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay differs: %d vs %d heads", a, b)
	}
}

// TestCandidateOutOfRangeElectsNobody carries a candidate out of its
// live head's search radius. It alone lost the head, which every other
// candidate still hears, so it must re-join elsewhere rather than elect
// a second head for the cell. Both cells used to gain one, and the big
// node was left with 8 children, over its bound of 6, for good.
func TestCandidateOutOfRangeElectsNobody(t *testing.T) {
	for _, bigCell := range []bool{true, false} {
		opt := DefaultOptions(100, 280)
		opt.Seed = 7
		s, err := Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Configure(); err != nil {
			t.Fatal(err)
		}
		s.Net.StartMaintenance(core.VariantM)
		s.RunSweeps(6)
		snap := s.Net.Snapshot()
		mover := radio.None
		for _, v := range snap.Nodes {
			if v.Candidate && (v.Head == snap.BigID) == bigCell {
				mover = v.ID
				break
			}
		}
		if mover == radio.None {
			t.Fatalf("big cell %v: no candidate to move", bigCell)
		}
		before := s.Net.Metrics().Promotions
		s.Net.Move(mover, geom.Point{X: 1000, Y: 0})
		s.RunSweeps(30)
		if n := s.Net.Metrics().Promotions - before; n != 0 {
			t.Errorf("big cell %v: candidate %d left range and %d promotions followed", bigCell, mover, n)
		}
		if r := check.Fixpoint(s.Net.Snapshot(), check.Dynamic); !r.OK() {
			t.Errorf("big cell %v: candidate %d left range: %v", bigCell, mover, r.Violations)
		}
	}
}
