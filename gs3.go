// Package gs3 is the public API of this GS³ implementation — the
// self-configuration and self-healing algorithm of Zhang & Arora
// (PODC 2002) for multi-hop wireless sensor networks.
//
// A Network wraps a simulated deployment: the big node (sink) plus
// small nodes on a 2-D plane. Configure runs the GS³-S diffusing
// computation that organizes the nodes into a cellular hexagonal
// structure of cells with radius R ± O(Rt); EnableSelfHealing turns on
// the GS³-D/GS³-M maintenance that heals joins, leaves, deaths, moves,
// and state corruption locally.
//
//	net, _ := gs3.New(gs3.Options{CellRadius: 100}, positions)
//	_ = net.Configure()
//	net.EnableSelfHealing(gs3.Mobile)
//	net.RunFor(10)              // advance virtual time
//	cells := net.Cells()        // inspect the structure
//	route := net.RouteToSink(id) // head-graph path to the big node
//
// Two data-plane entry points ride on the structure: Collect computes
// one instantaneous aggregation round over a snapshot, and
// ServeTraffic routes individual packets hop-by-hop on the virtual
// clock — convergecast to the sink and point-to-point geographic —
// measuring delivery, latency, and head load while healing runs.
package gs3

import (
	"fmt"
	"math"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/live"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// Point is a location on the plane.
type Point struct {
	X, Y float64
}

// NodeID identifies a node; the big node is always 0.
type NodeID = radio.NodeID

// None is the absent-node sentinel.
const None = radio.None

// Healing selects the self-healing variant.
type Healing int

// Healing variants: Dynamic enables GS³-D (joins, leaves, deaths,
// corruption); Mobile additionally enables GS³-M (node movement, big
// node proxying).
const (
	Dynamic Healing = iota + 1
	Mobile
)

// Options configures a network.
type Options struct {
	// CellRadius is the ideal cell radius R. Required.
	CellRadius float64
	// RadiusTolerance is Rt; with high probability every Rt-disk in the
	// deployment holds a node. Defaults to CellRadius/4.
	RadiusTolerance float64
	// ReferenceDirection is the GR angle in radians (any consistent
	// value works; defaults to 0).
	ReferenceDirection float64

	// HeartbeatInterval is the maintenance period in virtual seconds.
	// Defaults to 1.
	HeartbeatInterval float64

	// InitialEnergy enables the energy model when positive: nodes spend
	// EnergyRate per second as associates and HeadEnergyFactor times
	// that as heads, and die at zero.
	InitialEnergy    float64
	EnergyRate       float64
	HeadEnergyFactor float64
}

func (o Options) toConfig() (core.Config, error) {
	if o.CellRadius <= 0 {
		return core.Config{}, fmt.Errorf("gs3: CellRadius must be positive, got %v", o.CellRadius)
	}
	// A zero option keeps its default; any other value, NaN included,
	// goes to core.Config.Validate. The energy rates are read only while
	// InitialEnergy is non-zero.
	cfg := core.DefaultConfig(o.CellRadius)
	cfg.GR = o.ReferenceDirection
	if o.RadiusTolerance != 0 {
		cfg.Rt = o.RadiusTolerance
	}
	if o.HeartbeatInterval != 0 {
		cfg.HeartbeatInterval = o.HeartbeatInterval
	}
	if o.InitialEnergy != 0 {
		cfg.InitialEnergy = o.InitialEnergy
	}
	if o.EnergyRate != 0 {
		cfg.AssociateDissipation = o.EnergyRate
	}
	if o.HeadEnergyFactor != 0 {
		cfg.HeadEnergyFactor = o.HeadEnergyFactor
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("gs3: %w", err)
	}
	return cfg, nil
}

// Network is a GS³-managed network.
type Network struct {
	nw  *core.Network
	cfg core.Config
}

// New creates a network from node positions. positions[0] is the big
// node (the sink). At least one node is required.
func New(opts Options, positions []Point) (*Network, error) {
	cfg, err := opts.toConfig()
	if err != nil {
		return nil, err
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("gs3: at least the big node is required")
	}
	params := radio.Params{
		MaxRange:           cfg.SearchRadius() + cfg.Rt,
		DiffusionSpeed:     cfg.SearchRadius(),
		PerMessageOverhead: 0.001,
	}
	nw, err := core.NewNetwork(cfg, params)
	if err != nil {
		return nil, err
	}
	for i, p := range positions {
		if _, err := nw.AddNode(geom.Point(p), i == 0); err != nil {
			return nil, err
		}
	}
	return &Network{nw: nw, cfg: cfg}, nil
}

// Configure runs the GS³-S self-configuration to completion and returns
// the virtual time it took.
func (n *Network) Configure() (float64, error) {
	start := n.nw.Engine().Now()
	if err := n.nw.StartConfiguration(); err != nil {
		return 0, err
	}
	n.nw.Engine().Run(0)
	return n.nw.Engine().Now() - start, nil
}

// EnableSelfHealing starts the GS³-D (Dynamic) or GS³-M (Mobile)
// maintenance sweeps.
func (n *Network) EnableSelfHealing(h Healing) {
	switch h {
	case Mobile:
		n.nw.StartMaintenance(core.VariantM)
	default:
		n.nw.StartMaintenance(core.VariantD)
	}
}

// RunFor advances virtual time by d seconds, executing all protocol
// actions that fall due.
func (n *Network) RunFor(d float64) {
	e := n.nw.Engine()
	e.RunUntil(e.Now() + d)
}

// Now returns the current virtual time.
func (n *Network) Now() float64 {
	return n.nw.Engine().Now()
}

// Join adds a small node at p to the running network and returns its
// ID. A point with a NaN or infinite coordinate adds nothing and
// returns None.
func (n *Network) Join(p Point) NodeID {
	return n.nw.Join(geom.Point(p))
}

// Kill removes a node abruptly (fail-stop).
func (n *Network) Kill(id NodeID) {
	n.nw.Kill(id)
}

// Move changes a node's position. A point with a NaN or infinite
// coordinate leaves the node where it is.
func (n *Network) Move(id NodeID, p Point) {
	n.nw.Move(id, geom.Point(p))
}

// Role is a node's role in the structure.
type Role int

// Roles.
const (
	RoleBootup Role = iota + 1
	RoleHead
	RoleAssociate
	RoleBigMoving
	RoleDead
)

func roleOf(s core.Status) Role {
	switch {
	case s.IsHeadRole():
		return RoleHead
	case s == core.StatusAssociate:
		return RoleAssociate
	case s == core.StatusBigSlide || s == core.StatusBigMove:
		return RoleBigMoving
	case s == core.StatusDead:
		return RoleDead
	default:
		return RoleBootup
	}
}

// Info is a node's public state.
type Info struct {
	ID        NodeID
	Pos       Point
	Role      Role
	IsBig     bool
	Head      NodeID // for associates: their cell head
	Candidate bool
	Energy    float64
}

// NodeInfo returns a node's state; ok is false for unknown or dead
// nodes.
func (n *Network) NodeInfo(id NodeID) (Info, bool) {
	v, ok := n.nw.Snapshot().View(id)
	if !ok {
		return Info{}, false
	}
	return Info{
		ID: v.ID, Pos: Point(v.Pos), Role: roleOf(v.Status), IsBig: v.IsBig,
		Head: v.Head, Candidate: v.Candidate, Energy: v.Energy,
	}, true
}

// Cell is one cell of the configured structure.
type Cell struct {
	Head     NodeID
	IL       Point // the cell's current ideal location
	Parent   NodeID
	Hops     int // head-graph distance to the big node
	Members  []NodeID
	IsBig    bool
	Boundary bool // fewer than 6 neighboring cells
}

// Cells returns the current cellular structure.
func (n *Network) Cells() []Cell {
	snap := n.nw.Snapshot()
	heads := snap.Heads()
	out := make([]Cell, 0, len(heads))
	for _, h := range heads {
		neighbors := 0
		for _, o := range heads {
			if o.ID != h.ID && h.Pos.Dist(o.Pos) <= n.cfg.NeighborDistMax()+1e-9 {
				neighbors++
			}
		}
		out = append(out, Cell{
			Head:     h.ID,
			IL:       Point(h.IL),
			Parent:   h.Parent,
			Hops:     h.Hops,
			Members:  snap.Members(h.ID),
			IsBig:    h.IsBig,
			Boundary: neighbors < 6,
		})
	}
	return out
}

// RouteToSink returns the head-graph path from the given node to the
// big node: its cell head, then parent heads up the tree. It returns
// nil when the node is not attached to the structure.
func (n *Network) RouteToSink(id NodeID) []NodeID {
	snap := n.nw.Snapshot()
	v, ok := snap.View(id)
	if !ok {
		return nil
	}
	var route []NodeID
	cur := v
	if !cur.IsHead() {
		if cur.Status != core.StatusAssociate {
			return nil
		}
		route = append(route, cur.ID)
		cur, ok = snap.View(cur.Head)
		if !ok {
			return nil
		}
	}
	for hops := 0; hops <= len(snap.Nodes); hops++ {
		route = append(route, cur.ID)
		if cur.IsBig || cur.Parent == cur.ID {
			return route
		}
		next, ok := snap.View(cur.Parent)
		if !ok || !next.IsHead() {
			return route
		}
		cur = next
	}
	return route
}

// Verify machine-checks the GS³ invariant on the current state and
// returns human-readable violations (empty means the invariant holds).
// Use VerifyStrict for the stronger fixpoint check.
func (n *Network) Verify() []string {
	return render(check.Invariant(n.nw.Snapshot(), check.Dynamic))
}

// VerifyStrict checks the full fixpoint (coverage, optimality,
// min-distance tree).
func (n *Network) VerifyStrict() []string {
	return render(check.Fixpoint(n.nw.Snapshot(), check.Dynamic))
}

func render(r check.Result) []string {
	out := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		out = append(out, v.String())
	}
	return out
}

// Stats summarizes the structure.
type Stats struct {
	Nodes            int
	Heads            int
	Associates       int
	Uncovered        int
	MeanCellRadius   float64
	MaxCellRadius    float64
	MeanNeighborDist float64
	Broadcasts       uint64
	HeadShifts       uint64
	CellShifts       uint64
}

// Stats computes summary statistics of the current structure.
func (n *Network) Stats() Stats {
	st := check.Stats(n.nw.Snapshot())
	var s Stats
	s.Nodes = st.Heads + st.Associates + st.Bootup
	s.Heads = st.Heads
	s.Associates = st.Associates
	s.Uncovered = st.Bootup
	if len(st.CellRadii) > 0 {
		sum, maxR := 0.0, 0.0
		for _, r := range st.CellRadii {
			sum += r
			maxR = math.Max(maxR, r)
		}
		s.MeanCellRadius = sum / float64(len(st.CellRadii))
		s.MaxCellRadius = maxR
	}
	if len(st.NeighborDists) > 0 {
		sum := 0.0
		for _, d := range st.NeighborDists {
			sum += d
		}
		s.MeanNeighborDist = sum / float64(len(st.NeighborDists))
	}
	s.Broadcasts = n.nw.Medium().Stats().Broadcasts
	m := n.nw.Metrics()
	s.HeadShifts = m.HeadShifts
	s.CellShifts = m.CellShifts
	return s
}

// PoissonDeployment generates node positions with a planar Poisson
// process of the given density λ (mean nodes per unit-radius disk, the
// paper's convention) in a disk of regionRadius; index 0 is the big
// node at the center.
func PoissonDeployment(regionRadius, lambda float64, seed uint64) ([]Point, error) {
	dep, err := field.Poisson(field.Config{Radius: regionRadius, Lambda: lambda}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return toPoints(dep), nil
}

// GridDeployment generates node positions on a jittered triangular grid
// with the given spacing; index 0 is the big node at the center. A
// spacing of at most √3·Rt guarantees every Rt-disk holds a node.
func GridDeployment(regionRadius, spacing, jitter float64, seed uint64) ([]Point, error) {
	dep, err := field.Grid(regionRadius, spacing, jitter, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return toPoints(dep), nil
}

func toPoints(dep field.Deployment) []Point {
	out := make([]Point, len(dep.Positions))
	for i, p := range dep.Positions {
		out[i] = Point(p)
	}
	return out
}

// LiveResult is the outcome of RunLive.
type LiveResult struct {
	// Heads maps each elected head to its ideal location.
	Heads map[NodeID]Point
	// HeadOf maps each non-head node to its chosen head (None when
	// uncovered).
	HeadOf map[NodeID]NodeID
}

// RunLive executes the GS³-S diffusing computation with one goroutine
// per node (message-level concurrency) instead of the event-driven
// engine, and returns the resulting structure. It demonstrates that
// the structure emerges from the distributed protocol itself.
func RunLive(opts Options, positions []Point) (LiveResult, error) {
	cfg, err := opts.toConfig()
	if err != nil {
		return LiveResult{}, err
	}
	dep := field.Deployment{Positions: make([]geom.Point, len(positions))}
	for i, p := range positions {
		dep.Positions[i] = geom.Point(p)
	}
	res, err := live.Run(cfg, dep)
	if err != nil {
		return LiveResult{}, err
	}
	out := LiveResult{Heads: map[NodeID]Point{}, HeadOf: map[NodeID]NodeID{}}
	for _, rep := range res.Reports {
		if rep.IsHead {
			out.Heads[rep.ID] = Point(rep.IL)
		} else {
			out.HeadOf[rep.ID] = rep.Head
		}
	}
	return out, nil
}
