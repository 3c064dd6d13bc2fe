package netsim

import (
	"math"
	"testing"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
)

// ---- KillDisk edge cases ----

// edgeSim builds a small network for exact disk-boundary checks.
func edgeSim(t *testing.T) *Sim {
	t.Helper()
	opt := DefaultOptions(100, 150)
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKillDiskBoundaryInclusive(t *testing.T) {
	s := edgeSim(t)
	// Pick any small node and kill a disk whose radius is exactly its
	// distance from the center: the boundary node must die.
	var target radio.NodeID = radio.None
	for _, id := range s.Net.SortedIDs() {
		if id != s.Net.BigID() && s.Net.Alive(id) {
			target = id
			break
		}
	}
	if target == radio.None {
		t.Fatal("no small nodes deployed")
	}
	p, _ := s.Net.Medium().Position(target)
	c := geom.Point{X: 10, Y: 10}
	killed := s.KillDisk(c, p.Dist(c))
	if killed == 0 {
		t.Error("exact-radius kill disk killed nothing")
	}
	if s.Net.Alive(target) {
		t.Error("node at exactly the disk radius survived (boundary must be inclusive)")
	}
}

func TestKillDiskExcludesBigNode(t *testing.T) {
	s := edgeSim(t)
	before := s.Net.Medium().Count()
	killed := s.KillDisk(geom.Point{}, 30)
	if killed == 0 {
		t.Fatal("nothing killed around the origin")
	}
	if !s.Net.Alive(s.Net.BigID()) {
		t.Fatal("big node died in a kill disk")
	}
	if got := s.Net.Medium().Count(); got != before-killed {
		t.Errorf("medium count %d, want %d", got, before-killed)
	}
}

func TestKillDiskEmpty(t *testing.T) {
	s := edgeSim(t)
	before := s.Net.Medium().Count()
	if killed := s.KillDisk(geom.Point{X: 1e6, Y: 1e6}, 10); killed != 0 {
		t.Errorf("empty disk killed %d", killed)
	}
	if got := s.Net.Medium().Count(); got != before {
		t.Errorf("medium count changed: %d → %d", before, got)
	}
}

func TestKillDiskReachesBehindObstacles(t *testing.T) {
	opt := DefaultOptions(100, 300)
	// A wall just left of x=150; the disk at (200, 0) must still kill
	// nodes on the far side of the wall from... any radio perspective.
	opt.Obstacles = []field.Obstacle{{
		{X: 140, Y: -80}, {X: 145, Y: -80}, {X: 145, Y: 80}, {X: 140, Y: 80},
	}}
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes on both sides of the wall within 100 of (145, 0):
	c := geom.Point{X: 145, Y: 0}
	killed := s.KillDisk(c, 100)
	for _, id := range s.Net.SortedIDs() {
		p, alive := s.Net.Medium().Position(id)
		if id == s.Net.BigID() || !alive {
			continue
		}
		if p.Dist(c) <= 100 {
			t.Errorf("node %d at %v inside blast survived", id, p)
		}
	}
	if killed == 0 {
		t.Error("blast killed nothing")
	}
}

// ---- Scheduled disasters ----

func TestScheduledDisasterFiresMidMaintenance(t *testing.T) {
	s := buildConfigured(t, 400)
	s.Net.StartMaintenance(core.VariantD)
	c := geom.Point{X: 170, Y: 100}
	at := s.Net.Engine().Now() + 3*s.Opt.Config.HeartbeatInterval
	if err := s.ScheduleDisaster(Disaster{At: at, Center: c, Radius: 60}); err != nil {
		t.Fatal(err)
	}
	if len(s.Disasters()) != 0 {
		t.Fatal("disaster logged before firing")
	}
	s.RunSweeps(2)
	if len(s.Disasters()) != 0 {
		t.Fatal("disaster fired early")
	}
	s.RunSweeps(2)
	recs := s.Disasters()
	if len(recs) != 1 {
		t.Fatalf("disaster log has %d records, want 1", len(recs))
	}
	if recs[0].Killed == 0 {
		t.Fatal("disaster killed nothing")
	}
	if recs[0].Center != c || recs[0].Radius != 60 || recs[0].At != at {
		t.Errorf("record %+v does not match the schedule", recs[0])
	}
	if _, err := s.RunUntilStable(40); err != nil {
		t.Fatalf("did not heal after scheduled disaster: %v", err)
	}
}

func TestScheduleDisasterInPast(t *testing.T) {
	s := buildConfigured(t, 300)
	if err := s.ScheduleDisaster(Disaster{At: s.Net.Engine().Now() - 1, Radius: 10}); err == nil {
		t.Error("past disaster accepted")
	}
}

// TestScheduleDisasterNonFinite is the regression test for a disaster
// at NaN: it used to be accepted, fire at an arbitrary point of the
// run, and leave the engine's clock at NaN. A disk with a NaN radius or
// centre must be refused too.
func TestScheduleDisasterNonFinite(t *testing.T) {
	s := buildConfigured(t, 300)
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.ScheduleDisaster(Disaster{At: at, Radius: 10}); err == nil {
			t.Errorf("disaster at %v accepted", at)
		}
	}
	at := s.Net.Engine().Now() + 1
	for _, d := range []Disaster{
		{At: at, Radius: math.NaN()},
		{At: at, Radius: -1},
		{At: at, Center: geom.Point{X: math.NaN()}, Radius: 10},
		{At: at, Center: geom.Point{Y: math.Inf(-1)}, Radius: 10},
	} {
		if err := s.ScheduleDisaster(d); err == nil {
			t.Errorf("disaster at centre %v radius %v accepted", d.Center, d.Radius)
		}
	}
	if got := s.Net.Engine().Pending(); got != 0 {
		t.Fatalf("rejected disasters left %d events queued", got)
	}
}

// ---- Obstacles end to end ----

func TestConfigureAroundObstacle(t *testing.T) {
	opt := DefaultOptions(100, 350)
	// An L-shaped wall east of the big node.
	opt.Obstacles = []field.Obstacle{{
		{X: 120, Y: -140}, {X: 150, Y: -140}, {X: 150, Y: 30},
		{X: 290, Y: 30}, {X: 290, Y: 60}, {X: 120, Y: 60},
	}}
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	// No node deployed inside the obstacle.
	for _, id := range s.Net.SortedIDs() {
		p, _ := s.Net.Medium().Position(id)
		if id != s.Net.BigID() && opt.Obstacles[0].Contains(p) {
			t.Fatalf("node %d deployed inside obstacle", id)
		}
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	if res := check.Fixpoint(s.Net.Snapshot(), check.Static).OK(); !res {
		t.Error("static fixpoint does not hold around the obstacle")
	}
	// The structure must actually avoid occluded links: no head-graph
	// edge crosses the wall.
	snap := s.Net.Snapshot()
	for _, h := range snap.Heads() {
		if h.Parent == radio.None {
			continue
		}
		if pv, ok := snap.View(h.Parent); ok {
			if opt.Obstacles[0].Occludes(h.Pos, pv.Pos) {
				t.Errorf("head %d's parent link crosses the obstacle", h.ID)
			}
		}
	}
}

func TestObstacleHealingUnderMaintenance(t *testing.T) {
	opt := DefaultOptions(100, 300)
	opt.Obstacles = []field.Obstacle{{
		{X: 100, Y: -60}, {X: 130, Y: -60}, {X: 130, Y: 60}, {X: 100, Y: 60},
	}}
	s, err := Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(2)
	killed := s.KillDisk(geom.Point{X: 200, Y: 0}, 60)
	if killed == 0 {
		t.Fatal("nothing killed behind the wall")
	}
	if _, err := s.RunUntilStable(50); err != nil {
		t.Fatalf("did not re-stabilize around the obstacle: %v", err)
	}
}

// Zero obstacles must leave builds byte-identical: same deployment,
// same configured structure, same stats as an Options that never
// mentioned obstacles.
func TestZeroObstaclesIdentity(t *testing.T) {
	a, err := Build(DefaultOptions(100, 300))
	if err != nil {
		t.Fatal(err)
	}
	optB := DefaultOptions(100, 300)
	optB.Obstacles = []field.Obstacle{}
	b, err := Build(optB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Configure(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Configure(); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Net.Snapshot(), b.Net.Snapshot()
	if len(sa.Nodes) != len(sb.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(sa.Nodes), len(sb.Nodes))
	}
	for i := range sa.Nodes {
		va, vb := sa.Nodes[i], sb.Nodes[i]
		if va.ID != vb.ID || va.Status != vb.Status || va.Head != vb.Head ||
			va.Parent != vb.Parent || va.IL != vb.IL {
			t.Fatalf("node %d differs between zero-obstacle builds", va.ID)
		}
	}
	if a.Net.Medium().Stats() != b.Net.Medium().Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Net.Medium().Stats(), b.Net.Medium().Stats())
	}
}

// ---- RunChaos message accounting ----

func TestRunChaosHealMessages(t *testing.T) {
	s := buildConfigured(t, 300)
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(1)
	// Quiet network: chaos over an already-held fixpoint spends nothing.
	rep := s.RunChaos(check.Dynamic, 2, 10)
	if !rep.Converged {
		t.Fatalf("quiet run did not converge: %+v", rep)
	}
	if rep.HealMessages != 0 {
		t.Errorf("quiet run charged %d heal messages", rep.HealMessages)
	}

	// Faulty networks: blackouts keep the fixpoint broken across sweeps,
	// so healing spans periodic boundary rescans and must cost messages.
	// Every converged trial must satisfy the accounting identity
	// (HealTime == 0 ⇒ HealMessages == 0), and at least one trial must
	// exhibit a real, paid-for heal.
	plan := fault.Plan{Loss: 0.2, BlackoutRate: 0.02, BlackoutSweeps: 3}
	paid := false
	for seed := uint64(1); seed <= 8; seed++ {
		rep := chaosTrial(t, seed, plan, 80)
		if !rep.Converged {
			continue
		}
		if rep.HealTime == 0 && rep.HealMessages != 0 {
			t.Errorf("seed %d: instant convergence charged %d messages", seed, rep.HealMessages)
		}
		if rep.HealTime > 0 && rep.HealMessages > 0 {
			paid = true
		}
	}
	if !paid {
		t.Error("no faulty trial exhibited a message-bearing heal")
	}
}
