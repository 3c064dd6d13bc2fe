package adversary

import (
	"testing"

	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/radio"
)

// smallScenario is the cheapest structure worth attacking: a 250-radius
// grid with R=100 (a few dozen cells), warmup 2, one-cell blasts.
func smallScenario() Scenario {
	return Scenario{
		Name:   "grid-250",
		Opt:    netsim.DefaultOptions(100, 250),
		Warmup: 2,
	}
}

func TestCandidatesDeterministic(t *testing.T) {
	a, err := Candidates(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Candidates(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no candidates")
	}
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Both strike phases must appear.
	delays := map[int]bool{}
	for _, c := range a {
		delays[c.Delay] = true
	}
	if len(delays) < 2 {
		t.Errorf("only one strike phase generated: %v", delays)
	}
}

// TestCandidatesStrikeEveryHeuristicTarget rebuilds the probe structure
// Candidates inspects and checks that each heuristic's head is struck
// at every phase. On smallScenario's grid every heuristic picks the
// same head; on this 450-radius grid three of them pick different ones.
func TestCandidatesStrikeEveryHeuristicTarget(t *testing.T) {
	sc := Scenario{Name: "grid-450", Opt: netsim.DefaultOptions(100, 450), Warmup: 2}
	a, err := Candidates(sc)
	if err != nil {
		t.Fatal(err)
	}
	struck := map[geom.Point]int{}
	for _, c := range a {
		struck[c.Center]++
	}
	s, err := netsim.Build(sc.normalized().Opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	snap := s.Net.Snapshot()
	heads := snap.Heads()
	phases := 2 // immediately, and just after a boundary-rescan batch
	for _, h := range []struct {
		name string
		id   radio.NodeID
	}{
		{"root-adjacent", rootAdjacentHead(snap, heads)},
		{"max-children", maxChildrenHead(heads)},
		{"articulation", articulationHead(snap, heads)},
		{"farthest", farthestHead(heads)},
	} {
		if h.id == radio.None {
			continue
		}
		v, _ := snap.View(h.id)
		if struck[v.Pos] != phases {
			t.Errorf("%s head %d at %v struck %d times, want %d", h.name, h.id, v.Pos, struck[v.Pos], phases)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	sc := smallScenario()
	cands, err := Candidates(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Replay(sc, cands[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(sc, cands[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replay diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.Killed == 0 {
		t.Error("strike on a head killed nothing")
	}
	if a.Quality < 0 || a.Quality > 1 {
		t.Errorf("quality %v outside [0, 1]", a.Quality)
	}
}

func TestGreedyAtLeastRandom(t *testing.T) {
	sc := smallScenario()
	bestOut, all, err := Greedy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("greedy evaluated nothing")
	}
	best := bestOut.Score(sc)
	// The winner really is the argmax of the evaluated set.
	for i, o := range all {
		if o.Score(sc) > best {
			t.Fatalf("outcome %d scores %v > committed %v", i, o.Score(sc), best)
		}
	}
	// And therefore beats (or ties) any random draw from the same set.
	for seed := uint64(1); seed <= 5; seed++ {
		r, err := Random(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.Score(sc) > best {
			t.Fatalf("random seed %d scores %v > greedy %v", seed, r.Score(sc), best)
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	sc := smallScenario()
	a, _, err := Greedy(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Greedy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("greedy diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

func TestScoreRanksNonConvergenceWorst(t *testing.T) {
	sc := smallScenario().normalized()
	healed := Outcome{Report: netsim.ChaosReport{Converged: true, HealTime: 10}}
	stuck := Outcome{Report: netsim.ChaosReport{Converged: false}}
	if stuck.Score(sc) <= healed.Score(sc) {
		t.Errorf("non-converged %v must outrank healed %v",
			stuck.Score(sc), healed.Score(sc))
	}
}
