package netsim

import (
	"fmt"
	"testing"

	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/geom"
	"gs3/internal/radio"
)

// A settled sweep reads no Node: it takes liveness from Medium.Alive,
// the head role from Medium.IsHead and bigness from the ID (core's
// sweepOnce). The property test here pins the facts that makes sound.

// everyPerturbation is a fixed script that reaches every writer of a
// node's status and of the medium's membership: a single kill of a
// head, a join, a head moved away, a KillDisk, each Corrupt kind (a
// status corruption flips an associate, which CorruptDisk never
// picks), and a blackout with its restore.
func everyPerturbation(opt Options) []propStep {
	headAt := func(s *Sim, k int) radio.NodeID {
		heads := s.Net.Snapshot().Heads()
		for off := range heads {
			if h := heads[(k+off)%len(heads)]; !h.IsBig {
				return h.ID
			}
		}
		return radio.None
	}
	rt := opt.Config.Rt
	return []propStep{
		{3, "kill", func(s *Sim) { s.Net.Kill(headAt(s, 2)) }},
		{4, "join", func(s *Sim) { s.Net.Join(geom.Point{X: 40, Y: -30}) }},
		{5, "move", func(s *Sim) { s.Net.Move(headAt(s, 5), geom.Point{X: -90, Y: 60}) }},
		{6, "killdisk", func(s *Sim) { s.KillDisk(geom.Point{X: 120, Y: 40}, 2*rt) }},
		{7, "corrupt-il", func(s *Sim) { s.Net.Corrupt(headAt(s, 7), core.CorruptIL, 3*rt) }},
		{8, "corrupt-hops", func(s *Sim) { s.Net.Corrupt(headAt(s, 9), core.CorruptHops, 4) }},
		{9, "corrupt-status", func(s *Sim) {
			for _, v := range s.Net.Snapshot().Nodes {
				if v.Status == core.StatusAssociate {
					s.Net.Corrupt(v.ID, core.CorruptStatus, 0)
					return
				}
			}
		}},
		{10, "blackout", func(s *Sim) { s.Net.Medium().SetBlackout(headAt(s, 11), true) }},
		{13, "restore", func(s *Sim) {
			for _, id := range s.Net.SortedIDs() {
				s.Net.Medium().SetBlackout(id, false)
			}
		}},
	}
}

// TestMediumMirrorsNodeState drives randomized and fixed perturbation
// scripts — kills, joins, moves, KillDisk, all three Corrupt kinds,
// direct and fault-layer blackouts, energy deaths and the big node's
// mobile statuses — and after every engine event (each sweep batch among
// them) and every perturbation checks, for every ID, that the node is
// dead exactly when it is off the medium, holds a head role exactly
// when the medium's head index says so, and is big exactly when its ID
// is the big node's.
func TestMediumMirrorsNodeState(t *testing.T) {
	const sweeps = 30
	for _, tc := range []struct {
		name    string
		variant core.Variant
		seed    uint64
		energy  float64
		faults  fault.Plan
	}{
		{name: "dynamic-energy", variant: core.VariantD, seed: 3, energy: 60},
		{name: "mobile", variant: core.VariantM, seed: 8},
		{name: "fault-blackouts", variant: core.VariantD, seed: 11,
			faults: fault.Plan{BlackoutRate: 0.02, BlackoutSweeps: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions(100, 280)
			opt.Seed = tc.seed
			opt.Config.InitialEnergy = tc.energy
			opt.Faults = tc.faults
			script := withBlackouts(randomScript(opt, tc.seed*13+5, sweeps), tc.seed*13+5, sweeps)
			script = append(script, everyPerturbation(opt)...)
			if tc.variant == core.VariantM {
				script = append(script,
					propStep{12, "big-slide", func(s *Sim) {
						p := s.Net.Position(s.Net.BigID())
						s.Net.Move(s.Net.BigID(), p.Add(geom.Vec{X: opt.Config.Rt * 0.8}))
					}},
					propStep{20, "big-move", func(s *Sim) {
						s.Net.Move(s.Net.BigID(), geom.Point{X: -120, Y: 90})
					}},
				)
			}
			s, err := Build(opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMirror(t, "after Build", s)
			if _, err := s.Configure(); err != nil {
				t.Fatal(err)
			}
			checkMirror(t, "after Configure", s)
			s.Net.StartMaintenance(tc.variant)
			eng := s.Net.Engine()
			for i := 0; i < sweeps; i++ {
				for _, st := range script {
					if st.sweep == i {
						st.apply(s)
						checkMirror(t, fmt.Sprintf("sweep %d, after %s", i, st.name), s)
					}
				}
				deadline := eng.Now() + opt.Config.HeartbeatInterval
				for ev := 0; eng.NextEventTime() <= deadline; ev++ {
					eng.Step()
					checkMirror(t, fmt.Sprintf("sweep %d event %d", i, ev), s)
				}
				eng.RunUntil(deadline)
			}
		})
	}
}

// checkMirror fails unless, for every node of s, Status is StatusDead
// exactly when the medium does not hold the node, Status is a head role
// exactly when the medium's head index holds it, and IsBig exactly when
// its ID is BigID.
func checkMirror(t *testing.T, where string, s *Sim) {
	t.Helper()
	med := s.Net.Medium()
	for _, id := range s.Net.SortedIDs() {
		n := s.Net.Node(id)
		if dead, alive := n.Status == core.StatusDead, med.Alive(id); dead == alive {
			t.Fatalf("%s: node %d has status %v, and Medium.Alive says %v", where, id, n.Status, alive)
		}
		if head := n.Status.IsHeadRole(); head != med.IsHead(id) {
			t.Fatalf("%s: node %d has status %v, and Medium.IsHead says %v", where, id, n.Status, !head)
		}
		if big := id == s.Net.BigID(); n.IsBig != big {
			t.Fatalf("%s: node %d has IsBig %v, and BigID is %d", where, id, n.IsBig, s.Net.BigID())
		}
	}
}
