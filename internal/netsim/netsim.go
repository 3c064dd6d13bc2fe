// Package netsim is the experiment harness: it assembles deployments,
// radio, and the GS³ protocol into runnable scenarios, injects the
// paper's perturbations (and, through Options.Faults, an unreliable
// radio), and measures convergence times and structural change.
//
// # Concurrency
//
// A Sim is single-threaded by construction: it wraps one sim.Engine,
// one core.Network, and one rng.Source, none of which lock. Build each
// trial its own Sim and drive it from one goroutine only. Sims built
// from independent Options (even identical ones) share no state, so
// any number of trials may run concurrently on separate goroutines —
// that is exactly what internal/runner does. Identical Options with
// identical seeds produce identical results on any schedule.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/fault"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
	"gs3/internal/sim"
)

// Options describes a scenario. Options is plain data: copy it freely
// and hand each trial its own copy (with its own Seed) — Build takes
// its own copy of everything it keeps, so a built Sim shares nothing
// with the Options it came from.
type Options struct {
	Config core.Config
	Radio  radio.Params
	Seed   uint64

	// Deployment: exactly one of Grid or Poisson semantics applies.
	RegionRadius float64
	// Lambda > 0 selects a Poisson deployment with this density (the
	// paper's convention: mean nodes per unit-radius disk).
	Lambda float64
	// GridSpacing > 0 selects a deterministic triangular grid.
	GridSpacing float64
	// GridJitter perturbs grid nodes by this fraction of the spacing.
	GridJitter float64
	// Gaps clears circular areas of the deployment.
	Gaps []field.Gap
	// Obstacles are polygonal regions that clear deployed nodes AND
	// occlude radio: no node is deployed inside one, and links whose
	// line of sight crosses one are dead, so the structure must heal
	// around non-convex coverage holes. An empty list is free space —
	// builds are byte-identical to pre-obstacle builds.
	Obstacles []field.Obstacle

	// Faults configures the deterministic fault injector (message loss,
	// duplication, delay jitter, transient blackouts). The zero plan
	// runs the reliable radio byte-identically to a build without the
	// fault layer.
	Faults fault.Plan
}

// DefaultOptions returns a dense grid scenario with cell radius r and a
// deployment disk of regionRadius.
func DefaultOptions(r, regionRadius float64) Options {
	cfg := core.DefaultConfig(r)
	return Options{
		Config: cfg,
		Radio: radio.Params{
			MaxRange:           cfg.SearchRadius() + cfg.Rt,
			DiffusionSpeed:     cfg.SearchRadius(),
			PerMessageOverhead: 0.001,
		},
		Seed:         1,
		RegionRadius: regionRadius,
		GridSpacing:  cfg.Rt * 0.9,
		GridJitter:   0.15,
	}
}

// Sim wraps a network with its deployment and measurement helpers.
//
// A Sim is not safe for concurrent use: exactly one goroutine may
// drive it (configure, perturb, measure) at a time, the same ownership
// rule as the sim.Engine it contains. Distinct Sims are fully
// independent and may run in parallel.
type Sim struct {
	Net *core.Network
	Dep field.Deployment
	Opt Options
	Src *rng.Source

	// disasters holds every scheduled disaster and churns every started
	// churn process, addressed by the index their engine events carry.
	// disasterLog records executed disasters in firing order.
	disasters   []Disaster
	churns      []*churn
	disasterLog []DisasterRecord

	disasterKind, churnKind sim.Kind
}

// Build creates the network (unconfigured) from the options. Every
// call allocates a fresh engine, medium, and RNG, so concurrent Build
// calls (and the Sims they return) never contend.
func Build(opt Options) (*Sim, error) {
	if err := opt.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	// Defensive copy: the caller may mutate its Gaps or Obstacles
	// slices after Build (the medium additionally deep-copies the
	// polygons it keeps).
	opt.Gaps = slices.Clone(opt.Gaps)
	opt.Obstacles = slices.Clone(opt.Obstacles)
	src := rng.New(opt.Seed)
	var dep field.Deployment
	var err error
	switch {
	case opt.GridSpacing > 0:
		dep, err = field.Grid(opt.RegionRadius, opt.GridSpacing, opt.GridJitter, src.Fork())
	case opt.Lambda > 0:
		dep, err = field.Poisson(field.Config{
			Radius: opt.RegionRadius,
			Lambda: opt.Lambda,
		}, src.Fork())
	default:
		return nil, fmt.Errorf("netsim: options select no deployment")
	}
	if err != nil {
		return nil, fmt.Errorf("netsim: deployment: %w", err)
	}
	if len(opt.Gaps) > 0 {
		dep = field.WithGaps(dep, opt.Gaps)
	}
	if len(opt.Obstacles) > 0 {
		dep = field.WithObstacles(dep, opt.Obstacles)
	}
	// A discarded draw: it keeps every later fork (faults, traffic,
	// churn) on the stream the archived goldens pin. Without it,
	// chaos_seed7 and three other goldens change.
	src.Uint64()
	nw, err := core.NewNetwork(opt.Config, opt.Radio)
	if err != nil {
		return nil, err
	}
	// Installing obstacles consumes no randomness, so obstacle-free
	// builds draw exactly the pre-obstacle RNG sequence.
	if len(opt.Obstacles) > 0 {
		nw.Medium().SetObstacles(opt.Obstacles)
	}
	// The injector gets its own forked stream — and the fork happens
	// only for an active plan, so zero-fault builds draw exactly the
	// same RNG sequence as builds that predate the fault layer.
	if opt.Faults.Active() {
		inj, err := fault.NewInjector(opt.Faults, src.Fork())
		if err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
		nw.SetFaults(inj)
	}
	nw.Reserve(len(dep.Positions))
	for i, p := range dep.Positions {
		if _, err := nw.AddNode(p, i == 0); err != nil {
			return nil, err
		}
	}
	s := &Sim{Net: nw, Dep: dep, Opt: opt, Src: src}
	s.disasterKind = nw.Engine().Register(func(i int32) { s.strike(s.disasters[i]) })
	s.churnKind = nw.Engine().Register(func(i int32) { s.churns[i].fire() })
	return s, nil
}

// Configure runs the GS³-S diffusing computation to completion and
// returns the virtual time it took.
func (s *Sim) Configure() (float64, error) {
	start := s.Net.Engine().Now()
	if err := s.Net.StartConfiguration(); err != nil {
		return 0, err
	}
	s.Net.Engine().Run(0)
	return s.Net.Engine().Now() - start, nil
}

// RunSweeps advances virtual time by n heartbeat intervals.
func (s *Sim) RunSweeps(n int) {
	e := s.Net.Engine()
	e.RunUntil(e.Now() + float64(n)*s.Opt.Config.HeartbeatInterval)
}

// ErrNoConvergence is returned when a fixpoint is not reached in time.
// It is a sentinel for errors.Is; never mutated after init.
var ErrNoConvergence = fmt.Errorf("netsim: no convergence within the deadline")

// RunToFixpoint runs maintenance sweeps until the (mode) fixpoint holds
// or maxSweeps elapse. It returns the virtual time spent. The fixpoint
// is evaluated once per heartbeat interval.
func (s *Sim) RunToFixpoint(mode check.Mode, maxSweeps int) (float64, error) {
	start := s.Net.Engine().Now()
	for i := 0; i < maxSweeps; i++ {
		if check.Fixpoint(s.Net.Snapshot(), mode).OK() {
			return s.Net.Engine().Now() - start, nil
		}
		s.RunSweeps(1)
	}
	if check.Fixpoint(s.Net.Snapshot(), mode).OK() {
		return s.Net.Engine().Now() - start, nil
	}
	return s.Net.Engine().Now() - start, ErrNoConvergence
}

// RunUntilStable runs sweeps until the structure is stable by a cheap
// predicate — no bootup stragglers among connected nodes and all heads
// sane — or maxSweeps elapse.
func (s *Sim) RunUntilStable(maxSweeps int) (float64, error) {
	start := s.Net.Engine().Now()
	for i := 0; i < maxSweeps; i++ {
		if s.StableQuick() {
			return s.Net.Engine().Now() - start, nil
		}
		s.RunSweeps(1)
	}
	if s.StableQuick() {
		return s.Net.Engine().Now() - start, nil
	}
	return s.Net.Engine().Now() - start, ErrNoConvergence
}

// StableQuick is the cheap stability predicate used by RunUntilStable:
// every alive node is covered (no bootup), and every head is within Rt
// of its IL.
func (s *Sim) StableQuick() bool {
	snap := s.Net.Snapshot()
	for _, v := range snap.Nodes {
		if v.Status == core.StatusBootup {
			return false
		}
		if v.IsHead() && v.Pos.Dist(v.IL) > s.Opt.Config.Rt+1e-9 {
			return false
		}
	}
	return true
}

// ---- Perturbations ----

// KillDisk kills every node (big node excluded) within radius of c and
// returns how many died. The disk is geometric — WithinDisk, not a
// radio query — because a blast reaches nodes an obstacle would hide
// from a transmission. The radius boundary is inclusive: a node at
// exactly radius from c dies.
func (s *Sim) KillDisk(c geom.Point, radius float64) int {
	killed := 0
	for _, id := range s.Net.Medium().WithinDisk(c, radius, radio.None) {
		if id == s.Net.BigID() {
			continue
		}
		s.Net.Kill(id)
		killed++
	}
	return killed
}

// Disaster describes a correlated failure: at virtual time At, every
// node (big node excluded) within Radius of Center dies at once. It is
// KillDisk promoted to a first-class scheduled event, so a disaster
// can strike mid-traffic and mid-maintenance.
type Disaster struct {
	At     float64
	Center geom.Point
	Radius float64
}

// DisasterRecord is one executed disaster plus its measured kill count.
type DisasterRecord struct {
	Disaster
	Killed int
}

// ScheduleDisaster queues d on the engine. Scheduling consumes no
// randomness and a zero-disaster run is byte-identical to one that
// never called this. An At in the past or not finite is an error, as
// is a centre that is not finite or a radius that is NaN or negative,
// which would strike nobody; an infinite radius strikes every node.
func (s *Sim) ScheduleDisaster(d Disaster) error {
	if c := d.Center; !(math.Abs(c.X) <= math.MaxFloat64 && math.Abs(c.Y) <= math.MaxFloat64 && d.Radius >= 0) {
		return fmt.Errorf("netsim: disaster needs a finite centre and a radius >= 0, got (%v,%v) r=%v", c.X, c.Y, d.Radius)
	}
	if err := s.Net.Engine().At(d.At, s.disasterKind, int32(len(s.disasters))); err != nil {
		return fmt.Errorf("netsim: disaster: %w", err)
	}
	s.disasters = append(s.disasters, d)
	return nil
}

// strike executes scheduled disaster d and logs its kill count.
func (s *Sim) strike(d Disaster) {
	killed := s.KillDisk(d.Center, d.Radius)
	s.disasterLog = append(s.disasterLog, DisasterRecord{Disaster: d, Killed: killed})
}

// Disasters returns the executed disasters in firing order (read-only).
func (s *Sim) Disasters() []DisasterRecord {
	return s.disasterLog
}

// RepopulateDisk adds fresh bootup nodes on a triangular grid of the
// given spacing inside the disk, returning their IDs. A grid point the
// network refuses to join (a non-finite one) is skipped.
func (s *Sim) RepopulateDisk(c geom.Point, radius, spacing float64) []radio.NodeID {
	var out []radio.NodeID
	rowH := spacing * math.Sqrt(3) / 2
	for row := -int(radius/rowH) - 1; float64(row)*rowH <= radius; row++ {
		offset := 0.0
		if row%2 != 0 {
			offset = spacing / 2
		}
		for col := -int(radius/spacing) - 1; float64(col)*spacing <= radius; col++ {
			p := c.Add(geom.Vec{X: float64(col)*spacing + offset, Y: float64(row) * rowH})
			if p.Dist(c) <= radius {
				if id := s.Net.Join(p); id != radio.None {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// CorruptDisk corrupts the state of every head within radius of c.
func (s *Sim) CorruptDisk(c geom.Point, radius float64, kind core.CorruptionKind, delta float64) int {
	// One snapshot for the whole pass: Corrupt mutates live node state,
	// and a per-head re-snapshot would cost O(n) each.
	snap := s.Net.Snapshot()
	n := 0
	for _, h := range snap.Heads() {
		if h.IsBig {
			continue
		}
		if h.Pos.Dist(c) <= radius {
			s.Net.Corrupt(h.ID, kind, delta)
			n++
		}
	}
	return n
}

// ---- Measurement ----

// StructureDiff compares the current head set and parent assignments
// against a snapshot taken earlier and returns the IDs of heads whose
// role or parent changed (appeared, disappeared, or re-parented).
// It only reads its arguments; snapshots are immutable, so the
// function is safe to call from any goroutine.
func StructureDiff(before, after core.Snapshot) []radio.NodeID {
	type headInfo struct {
		parent radio.NodeID
		il     geom.Point
	}
	b := map[radio.NodeID]headInfo{}
	for _, h := range before.Heads() {
		b[h.ID] = headInfo{h.Parent, h.IL}
	}
	var changed []radio.NodeID
	seen := map[radio.NodeID]bool{}
	for _, h := range after.Heads() {
		seen[h.ID] = true
		old, was := b[h.ID]
		if !was || old.parent != h.Parent || old.il.Dist(h.IL) > 1e-9 {
			changed = append(changed, h.ID)
		}
	}
	for id := range b {
		if !seen[id] {
			changed = append(changed, id)
		}
	}
	return changed
}

// MeanCellSize returns the average number of associates per head.
func (s *Sim) MeanCellSize() float64 {
	snap := s.Net.Snapshot()
	heads := snap.Heads()
	if len(heads) == 0 {
		return 0
	}
	assoc := 0
	for _, v := range snap.Nodes {
		if v.Status == core.StatusAssociate {
			assoc++
		}
	}
	return float64(assoc) / float64(len(heads))
}
