package gs3

import (
	"math"
	"testing"
)

func demoNetwork(t *testing.T) *Network {
	t.Helper()
	pts, err := GridDeployment(350, 22, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Options{CellRadius: 100}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Configure(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}, []Point{{}}); err == nil {
		t.Error("zero CellRadius accepted")
	}
	if _, err := New(Options{CellRadius: 100}, nil); err == nil {
		t.Error("empty positions accepted")
	}
	if _, err := New(Options{CellRadius: 100, RadiusTolerance: 500}, []Point{{}}); err == nil {
		t.Error("Rt > R accepted")
	}
	// Non-finite options used to pass: a NaN or infinite GR configured
	// one head and left most of the field uncovered, and NaN energy
	// values slipped past the positivity tests.
	for name, o := range map[string]Options{
		"NaN GR":                 {CellRadius: 100, ReferenceDirection: math.NaN()},
		"infinite GR":            {CellRadius: 100, ReferenceDirection: math.Inf(1)},
		"infinite energy":        {CellRadius: 100, InitialEnergy: math.Inf(1)},
		"infinite energy rate":   {CellRadius: 100, InitialEnergy: 40, EnergyRate: math.Inf(1)},
		"NaN head energy factor": {CellRadius: 100, InitialEnergy: 40, HeadEnergyFactor: math.NaN()},
		"NaN cell radius":        {CellRadius: math.NaN()},
		"NaN heartbeat":          {CellRadius: 100, HeartbeatInterval: math.NaN()},
	} {
		if _, err := New(o, []Point{{}}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := GridDeployment(math.NaN(), 22.5, 0.15, 1); err == nil {
		t.Error("NaN deployment radius accepted")
	}
}

func TestConfigureBuildsCells(t *testing.T) {
	net := demoNetwork(t)
	cells := net.Cells()
	if len(cells) < 7 {
		t.Fatalf("only %d cells", len(cells))
	}
	bigCells := 0
	for _, c := range cells {
		if c.IsBig {
			bigCells++
			if c.Hops != 0 {
				t.Errorf("big cell hops = %d", c.Hops)
			}
		}
	}
	if bigCells != 1 {
		t.Errorf("big cells = %d", bigCells)
	}
}

func TestVerifyCleanAfterConfigure(t *testing.T) {
	net := demoNetwork(t)
	if v := net.Verify(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v[:min(5, len(v))])
	}
	if v := net.VerifyStrict(); len(v) != 0 {
		t.Errorf("fixpoint violations: %v", v[:min(5, len(v))])
	}
}

func TestStats(t *testing.T) {
	net := demoNetwork(t)
	s := net.Stats()
	if s.Heads < 7 || s.Associates == 0 || s.Uncovered != 0 {
		t.Errorf("stats = %+v", s)
	}
	// Cell radius within the proved bound for the bulk (boundary cells
	// may stretch to √3R + 2Rt).
	if s.MaxCellRadius > 100*math.Sqrt(3)+2*25+1e-9 {
		t.Errorf("max cell radius = %v", s.MaxCellRadius)
	}
	if math.Abs(s.MeanNeighborDist-100*math.Sqrt(3)) > 2*25 {
		t.Errorf("mean neighbor distance = %v", s.MeanNeighborDist)
	}
	if s.Broadcasts == 0 {
		t.Error("no broadcasts recorded")
	}
}

func TestRouteToSink(t *testing.T) {
	net := demoNetwork(t)
	cells := net.Cells()
	var member NodeID = None
	for _, c := range cells {
		if !c.IsBig && len(c.Members) > 0 && c.Hops >= 2 {
			member = c.Members[0]
			break
		}
	}
	if member == None {
		t.Skip("no distant member found")
	}
	route := net.RouteToSink(member)
	if len(route) < 3 {
		t.Fatalf("route = %v", route)
	}
	if route[0] != member {
		t.Errorf("route starts at %d", route[0])
	}
	last, ok := net.NodeInfo(route[len(route)-1])
	if !ok || !last.IsBig {
		t.Errorf("route ends at %+v", last)
	}
}

func TestRouteToSinkUnknownNode(t *testing.T) {
	net := demoNetwork(t)
	if r := net.RouteToSink(99999); r != nil {
		t.Errorf("route for unknown node = %v", r)
	}
}

func TestSelfHealingMasksHeadDeath(t *testing.T) {
	net := demoNetwork(t)
	net.EnableSelfHealing(Dynamic)
	var victim NodeID = None
	for _, c := range net.Cells() {
		if !c.IsBig {
			victim = c.Head
			break
		}
	}
	headsBefore := len(net.Cells())
	net.Kill(victim)
	net.RunFor(8)
	if got := len(net.Cells()); got < headsBefore-1 {
		t.Errorf("cells = %d, want ≥ %d", got, headsBefore-1)
	}
	if v := net.Verify(); len(v) != 0 {
		t.Errorf("invariant broken after healing: %v", v[:min(5, len(v))])
	}
}

func TestJoinAndInfo(t *testing.T) {
	net := demoNetwork(t)
	net.EnableSelfHealing(Dynamic)
	id := net.Join(Point{X: 120, Y: 40})
	net.RunFor(3)
	info, ok := net.NodeInfo(id)
	if !ok {
		t.Fatal("joined node unknown")
	}
	if info.Role != RoleAssociate && info.Role != RoleHead {
		t.Errorf("joined node role = %v", info.Role)
	}
}

// TestJoinAndMoveRejectNonFinite checks the public API refuses a point
// with a NaN or infinite coordinate, in X or in Y: Join returns None
// and adds no node, and Move leaves the node where it is.
func TestJoinAndMoveRejectNonFinite(t *testing.T) {
	net := demoNetwork(t)
	net.EnableSelfHealing(Mobile)
	var member NodeID = None
	for _, c := range net.Cells() {
		if !c.IsBig && len(c.Members) > 0 {
			member = c.Members[0]
			break
		}
	}
	for _, tc := range []struct {
		name string
		p    Point
	}{
		{"NaN X", Point{X: math.NaN(), Y: 10}},
		{"NaN Y", Point{X: 10, Y: math.NaN()}},
		{"+Inf X", Point{X: math.Inf(1), Y: 10}},
		{"-Inf X", Point{X: math.Inf(-1), Y: 10}},
		{"+Inf Y", Point{X: 10, Y: math.Inf(1)}},
		{"-Inf Y", Point{X: 10, Y: math.Inf(-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := net.Stats()
			if id := net.Join(tc.p); id != None {
				t.Errorf("Join returned %d, want None", id)
			}
			if after := net.Stats(); after.Nodes != before.Nodes {
				t.Errorf("Join changed the node count to %d, want %d", after.Nodes, before.Nodes)
			}
			info, _ := net.NodeInfo(member)
			net.Move(member, tc.p)
			if got, _ := net.NodeInfo(member); got.Pos != info.Pos {
				t.Errorf("Move put node %d at %v, want it left at %v", member, got.Pos, info.Pos)
			}
		})
	}
}

// TestNewRejectsNonFinitePositions checks New refuses a deployment with
// a NaN or infinite coordinate anywhere, the big node's included, where
// it used to keep such nodes as bootup nodes.
func TestNewRejectsNonFinitePositions(t *testing.T) {
	grid, err := GridDeployment(200, 22, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		at   int
		p    Point
	}{
		{"NaN X", len(grid), Point{X: math.NaN(), Y: 0}},
		{"+Inf X", len(grid), Point{X: math.Inf(1), Y: 5}},
		{"-Inf Y", len(grid), Point{X: 5, Y: math.Inf(-1)}},
		{"NaN Y mid-field", len(grid) / 2, Point{X: 10, Y: math.NaN()}},
		{"big node +Inf Y", 0, Point{X: 0, Y: math.Inf(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := append([]Point(nil), grid...)
			pts = append(pts[:tc.at], append([]Point{tc.p}, pts[tc.at:]...)...)
			if net, err := New(Options{CellRadius: 100}, pts); err == nil {
				t.Errorf("New accepted %v at index %d: %d nodes", tc.p, tc.at, net.Stats().Nodes)
			}
		})
	}
}

func TestMoveSmallNode(t *testing.T) {
	net := demoNetwork(t)
	net.EnableSelfHealing(Mobile)
	var member NodeID = None
	for _, c := range net.Cells() {
		if !c.IsBig && len(c.Members) > 0 {
			member = c.Members[0]
			break
		}
	}
	net.Move(member, Point{X: -100, Y: -80})
	net.RunFor(4)
	info, _ := net.NodeInfo(member)
	if info.Role == RoleBootup {
		t.Error("moved node left uncovered")
	}
}

func TestNodeInfoDead(t *testing.T) {
	net := demoNetwork(t)
	var victim NodeID
	for _, c := range net.Cells() {
		if !c.IsBig && len(c.Members) > 0 {
			victim = c.Members[0]
			break
		}
	}
	net.Kill(victim)
	if _, ok := net.NodeInfo(victim); ok {
		t.Error("dead node still visible")
	}
}

func TestEnergyModelThroughOptions(t *testing.T) {
	pts, err := GridDeployment(260, 22, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Options{
		CellRadius:       100,
		InitialEnergy:    40,
		EnergyRate:       1,
		HeadEnergyFactor: 5,
	}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Configure(); err != nil {
		t.Fatal(err)
	}
	net.EnableSelfHealing(Dynamic)
	net.RunFor(20)
	if net.Stats().HeadShifts == 0 {
		t.Error("energy pressure caused no head shifts")
	}
}

func TestPoissonDeploymentAPI(t *testing.T) {
	pts, err := PoissonDeployment(100, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("too few points: %d", len(pts))
	}
	if pts[0] != (Point{}) {
		t.Errorf("big node at %v", pts[0])
	}
	if _, err := PoissonDeployment(0, 1, 1); err == nil {
		t.Error("invalid deployment accepted")
	}
}

func TestRunLiveMatchesStructure(t *testing.T) {
	pts, err := GridDeployment(300, 22, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLive(Options{CellRadius: 100}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Heads) < 7 {
		t.Fatalf("live heads = %d", len(res.Heads))
	}
	uncovered := 0
	for _, h := range res.HeadOf {
		if h == None {
			uncovered++
		}
	}
	if uncovered > 0 {
		t.Errorf("%d uncovered in live run", uncovered)
	}
}

func TestRunLiveInvalid(t *testing.T) {
	if _, err := RunLive(Options{}, []Point{{}}); err == nil {
		t.Error("invalid options accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestChannelPlan(t *testing.T) {
	net := demoNetwork(t)
	plan, err := net.ChannelPlan()
	if err != nil {
		t.Fatal(err)
	}
	cells := net.Cells()
	if len(plan) != len(cells) {
		t.Fatalf("plan covers %d of %d cells", len(plan), len(cells))
	}
	// No two neighboring cells share a channel.
	for i, a := range cells {
		for _, b := range cells[i+1:] {
			d := math.Hypot(a.IL.X-b.IL.X, a.IL.Y-b.IL.Y)
			if d <= 100*math.Sqrt(3)+1 && plan[a.Head] == plan[b.Head] {
				t.Errorf("neighbor cells %d and %d share channel %d", a.Head, b.Head, plan[a.Head])
			}
		}
	}
}
