// Package adversary implements a worst-case perturbation daemon for
// the GS³ maintenance protocol: a deterministic greedy search over
// candidate disasters (where to strike, and when relative to the sweep
// schedule) that commits the perturbation maximizing the protocol's
// healing effort. Comparing the greedy daemon against a random daemon
// drawn from the SAME candidate set turns "self-healing works on
// random failures" into the stronger claim "self-healing works on the
// worst failure this daemon can find".
//
// The daemon never touches a live simulation: every candidate is
// evaluated by replaying a fresh, fully forked simulation of the
// scenario (build → configure → warmup sweeps → strike → chaos
// watchdog), so evaluation is embarrassingly parallel-safe and
// byte-reproducible. Greedy runs one round of argmax over the
// candidate set; because Random samples uniformly from that same set,
// the greedy healing effort is ≥ the random daemon's on every scenario
// by construction.
package adversary

import (
	"fmt"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/netsim"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// Scenario fixes everything about a run except the perturbation: the
// deployment and protocol options, the maintenance variant, how long
// the structure runs quietly before the strike window opens, the blast
// radius every candidate strike uses, and the chaos-watchdog streak
// and sweep budget that define "healed".
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Opt is the full netsim build recipe (deployment, radio, faults).
	Opt netsim.Options
	// Variant is the maintenance variant under attack (default GS³-D).
	Variant core.Variant
	// Warmup is how many quiet sweeps run before the strike window.
	Warmup int
	// Radius is the blast radius of every candidate strike; when zero
	// it defaults to the cell radius R (one cell's worth of damage).
	Radius float64
	// Streak and Budget parameterize the chaos watchdog: the fixpoint
	// must hold Streak consecutive sweep boundaries within Budget
	// sweeps. Zero values default to 3 and 60.
	Streak, Budget int
}

// normalized fills in the scenario's documented defaults.
func (sc Scenario) normalized() Scenario {
	if sc.Variant == 0 {
		sc.Variant = core.VariantD
	}
	if sc.Radius <= 0 {
		sc.Radius = sc.Opt.Config.R
	}
	if sc.Streak < 1 {
		sc.Streak = 3
	}
	if sc.Budget <= 0 {
		sc.Budget = 60
	}
	return sc
}

// Action is one candidate perturbation: a disaster disk dropped at
// Center (with the scenario's blast radius) after Delay extra sweeps
// beyond the warmup. Delay is the timing dimension of the search — it
// shifts the strike's phase relative to the periodic boundary-rescan
// batches, so the daemon can hit just after the structure finished
// rescanning (the slowest moment to notice damage).
type Action struct {
	// Center is where the disaster disk lands.
	Center geom.Point
	// Delay is extra sweeps past the warmup before the strike.
	Delay int
}

// Outcome is the replayed consequence of one Action on one Scenario.
type Outcome struct {
	// Killed is how many nodes the strike destroyed.
	Killed int
	// Report is the chaos watchdog's verdict on the healing run.
	Report netsim.ChaosReport
	// Quality is the fraction of surviving small nodes holding a
	// consistent role at the end of the run (head role, or associate
	// attached to a live head-role node): a structure-quality score in
	// [0, 1] that stays meaningful even when the run never converges.
	Quality float64
}

// Score ranks outcomes by how badly the perturbation hurt: converged
// runs score their healing time, non-converged runs score the full
// sweep budget (they exhausted it without healing), so a perturbation
// that prevents convergence always outranks one that merely slows it.
func (o Outcome) Score(sc Scenario) float64 {
	sc = sc.normalized()
	if !o.Report.Converged {
		return float64(sc.Budget) * sc.Opt.Config.HeartbeatInterval
	}
	return o.Report.HealTime
}

// Candidates proposes the deterministic strike set for a scenario: it
// builds and configures one probe simulation, inspects the resulting
// structure, and targets the heads a worst-case adversary would pick —
// the root-adjacent head (closest to the big node's tree), the head
// with the most children (widest subtree severed), an articulation
// head whose removal disconnects the head graph, and the farthest head
// (longest repair path) — each at two strike phases relative to the
// boundary-rescan period. A head two heuristics pick is struck once, so
// the set stays lean while remaining identical across calls.
func Candidates(sc Scenario) ([]Action, error) {
	sc = sc.normalized()
	s, err := netsim.Build(sc.Opt)
	if err != nil {
		return nil, fmt.Errorf("adversary: probe build: %w", err)
	}
	if _, err := s.Configure(); err != nil {
		return nil, fmt.Errorf("adversary: probe configure: %w", err)
	}
	snap := s.Net.Snapshot()
	heads := snap.Heads()

	picks := []radio.NodeID{
		rootAdjacentHead(snap, heads),
		maxChildrenHead(heads),
		articulationHead(snap, heads),
		farthestHead(heads),
	}

	// Strike phases: immediately, and just after a boundary-rescan
	// batch has fired (the structure's slowest moment to re-notice).
	phases := []int{0, sc.Opt.Config.BoundaryRescanEvery - 1}
	if phases[1] <= 0 {
		phases = phases[:1]
	}

	var out []Action
	seen := make(map[radio.NodeID]bool)
	for _, id := range picks {
		if id == radio.None || seen[id] {
			continue
		}
		seen[id] = true
		v, ok := snap.View(id)
		if !ok {
			continue
		}
		for _, d := range phases {
			out = append(out, Action{Center: v.Pos, Delay: d})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("adversary: scenario %q configured no small heads to target", sc.Name)
	}
	return out, nil
}

// rootAdjacentHead returns the lowest-ID small head whose parent is
// the big node itself.
func rootAdjacentHead(snap core.Snapshot, heads []core.NodeView) radio.NodeID {
	for _, h := range heads {
		if !h.IsBig && h.Parent == snap.BigID {
			return h.ID
		}
	}
	return radio.None
}

// maxChildrenHead returns the small head with the most children
// (lowest ID on ties).
func maxChildrenHead(heads []core.NodeView) radio.NodeID {
	best, bestN := radio.None, -1
	for _, h := range heads {
		if h.IsBig {
			continue
		}
		if n := len(h.Children); n > bestN {
			best, bestN = h.ID, n
		}
	}
	return best
}

// farthestHead returns the small head with the most tree hops from the
// big node (lowest ID on ties).
func farthestHead(heads []core.NodeView) radio.NodeID {
	best, bestHops := radio.None, -1
	for _, h := range heads {
		if h.IsBig {
			continue
		}
		if h.Hops > bestHops {
			best, bestHops = h.ID, h.Hops
		}
	}
	return best
}

// articulationHead returns the lowest-ID small head whose removal
// disconnects the head graph (heads as vertices, mutual neighbor
// links as edges) from the big node, or None when the graph is
// 2-connected around every head.
func articulationHead(snap core.Snapshot, heads []core.NodeView) radio.NodeID {
	adj := make(map[radio.NodeID][]radio.NodeID, len(heads))
	isHead := make(map[radio.NodeID]bool, len(heads))
	for _, h := range heads {
		isHead[h.ID] = true
	}
	for _, h := range heads {
		for _, n := range h.Neighbors {
			if isHead[n] {
				adj[h.ID] = append(adj[h.ID], n)
			}
		}
	}
	reach := func(skip radio.NodeID) int {
		seen := map[radio.NodeID]bool{snap.BigID: true}
		queue := []radio.NodeID{snap.BigID}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, n := range adj[v] {
				if n == skip || seen[n] {
					continue
				}
				seen[n] = true
				queue = append(queue, n)
			}
		}
		return len(seen)
	}
	full := reach(radio.None)
	for _, h := range heads {
		if h.IsBig {
			continue
		}
		// Removing h must strand some OTHER head, not merely h itself.
		if reach(h.ID) < full-1 {
			return h.ID
		}
	}
	return radio.None
}

// Replay evaluates one action on a fresh fork of the scenario: build,
// configure, start maintenance, run the warmup plus the action's delay,
// strike, then run the chaos watchdog. Identical (Scenario, Action)
// pairs return identical Outcomes.
func Replay(sc Scenario, a Action) (Outcome, error) {
	sc = sc.normalized()
	s, err := netsim.Build(sc.Opt)
	if err != nil {
		return Outcome{}, fmt.Errorf("adversary: replay build: %w", err)
	}
	if _, err := s.Configure(); err != nil {
		return Outcome{}, fmt.Errorf("adversary: replay configure: %w", err)
	}
	s.Net.StartMaintenance(sc.Variant)
	s.RunSweeps(sc.Warmup + a.Delay)
	killed := s.KillDisk(a.Center, sc.Radius)
	rep := s.RunChaos(check.Dynamic, sc.Streak, sc.Budget)
	return Outcome{
		Killed:  killed,
		Report:  rep,
		Quality: StructureQuality(s.Net.Snapshot()),
	}, nil
}

// StructureQuality scores a snapshot in [0, 1]: the fraction of live
// small nodes holding a consistent role — head role, or associate
// attached to a live head-role node. A perfect structure scores 1; a
// network of orphans scores 0. An empty network scores 1 (there is
// nothing left to be inconsistent).
func StructureQuality(snap core.Snapshot) float64 {
	role := make(map[radio.NodeID]bool, len(snap.Nodes))
	for _, v := range snap.Nodes {
		if v.IsHead() {
			role[v.ID] = true
		}
	}
	total, good := 0, 0
	for _, v := range snap.Nodes {
		if v.IsBig {
			continue
		}
		total++
		if v.IsHead() || (v.Head != radio.None && role[v.Head]) {
			good++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(good) / float64(total)
}

// Greedy runs the worst-case daemon: it replays every candidate and
// commits the argmax by Score (non-converged first, then longest
// healing time; earliest candidate wins ties, so the result is
// deterministic). It returns the winning outcome and every evaluated
// outcome in candidate order.
func Greedy(sc Scenario) (Outcome, []Outcome, error) {
	sc = sc.normalized()
	cands, err := Candidates(sc)
	if err != nil {
		return Outcome{}, nil, err
	}
	outcomes := make([]Outcome, len(cands))
	best := -1
	for i, a := range cands {
		o, err := Replay(sc, a)
		if err != nil {
			return Outcome{}, nil, err
		}
		outcomes[i] = o
		if best < 0 || o.Score(sc) > outcomes[best].Score(sc) {
			best = i
		}
	}
	return outcomes[best], outcomes, nil
}

// Random runs the baseline daemon: it draws one candidate uniformly
// from the SAME set Greedy searches (via a forked deterministic
// stream seeded with seed) and replays it. Because Greedy maximizes
// over this set, Greedy's score is ≥ Random's on every scenario.
func Random(sc Scenario, seed uint64) (Outcome, error) {
	sc = sc.normalized()
	cands, err := Candidates(sc)
	if err != nil {
		return Outcome{}, err
	}
	src := rng.New(seed)
	return Replay(sc, cands[src.Intn(len(cands))])
}
