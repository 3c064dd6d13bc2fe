package core

import (
	"math"
	"slices"
	"testing"

	"gs3/internal/geom"
	"gs3/internal/radio"
)

func testConfig() Config {
	return DefaultConfig(100) // R=100, Rt=25
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"zero R", func(c *Config) { c.R = 0 }, false},
		{"zero Rt", func(c *Config) { c.Rt = 0 }, false},
		{"Rt > R", func(c *Config) { c.Rt = c.R * 2 }, false},
		{"zero heartbeat", func(c *Config) { c.HeartbeatInterval = 0 }, false},
		{"zero rescan", func(c *Config) { c.BoundaryRescanEvery = 0 }, false},
		{"negative energy", func(c *Config) { c.InitialEnergy = -1 }, false},
		// Non-finite values would put NaN or infinite delays on the
		// event engine, which rejects them.
		{"NaN R", func(c *Config) { c.R = math.NaN() }, false},
		{"infinite R", func(c *Config) { c.R = math.Inf(1) }, false},
		{"NaN Rt", func(c *Config) { c.Rt = math.NaN() }, false},
		{"NaN heartbeat", func(c *Config) { c.HeartbeatInterval = math.NaN() }, false},
		{"infinite heartbeat", func(c *Config) { c.HeartbeatInterval = math.Inf(1) }, false},
		// A non-finite GR puts every ideal location at NaN; NaN energy
		// values pass a plain x < 0 test.
		{"NaN GR", func(c *Config) { c.GR = math.NaN() }, false},
		{"infinite GR", func(c *Config) { c.GR = math.Inf(1) }, false},
		{"infinite energy", func(c *Config) { c.InitialEnergy = math.Inf(1) }, false},
		{"infinite dissipation", func(c *Config) { c.AssociateDissipation = math.Inf(1) }, false},
		{"NaN head energy factor", func(c *Config) { c.HeadEnergyFactor = math.NaN() }, false},
		{"NaN broadcast cost", func(c *Config) { c.BroadcastCost = math.NaN() }, false},
		{"infinite unicast cost", func(c *Config) { c.UnicastCost = math.Inf(1) }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := testConfig()
	if math.Abs(cfg.HeadSpacing()-100*math.Sqrt(3)) > 1e-9 {
		t.Errorf("HeadSpacing = %v", cfg.HeadSpacing())
	}
	if math.Abs(cfg.SearchRadius()-(100*math.Sqrt(3)+50)) > 1e-9 {
		t.Errorf("SearchRadius = %v", cfg.SearchRadius())
	}
	wantAlpha := math.Asin(25 / (100 * math.Sqrt(3)))
	if math.Abs(cfg.Alpha()-wantAlpha) > 1e-12 {
		t.Errorf("Alpha = %v, want %v", cfg.Alpha(), wantAlpha)
	}
	if math.Abs(cfg.CellRadiusBound()-(100+50/math.Sqrt(3))) > 1e-9 {
		t.Errorf("CellRadiusBound = %v", cfg.CellRadiusBound())
	}
	if cfg.NeighborDistMin() >= cfg.NeighborDistMax() {
		t.Error("neighbor distance bounds inverted")
	}
}

func TestNeighborILsRoot(t *testing.T) {
	cfg := testConfig()
	il := geom.Point{X: 10, Y: 20}
	ils := NeighborILs(cfg, il, il, true)
	if len(ils) != 6 {
		t.Fatalf("root has %d neighbor ILs, want 6", len(ils))
	}
	for i, p := range ils {
		d := p.Dist(il)
		if math.Abs(d-cfg.HeadSpacing()) > 1e-9 {
			t.Errorf("IL %d at distance %v, want √3R", i, d)
		}
	}
	// First IL lies in the GR direction.
	want := il.Add(geom.UnitAt(cfg.GR).Scale(cfg.HeadSpacing()))
	if ils[0].Dist(want) > 1e-9 {
		t.Errorf("first IL = %v, want %v", ils[0], want)
	}
	// Consecutive ILs are 60° apart, i.e. √3R from each other too.
	for i := 0; i < 6; i++ {
		d := ils[i].Dist(ils[(i+1)%6])
		if math.Abs(d-cfg.HeadSpacing()) > 1e-9 {
			t.Errorf("consecutive ILs %d,%d at distance %v", i, i+1, d)
		}
	}
}

func TestNeighborILsSmallHead(t *testing.T) {
	cfg := testConfig()
	parentIL := geom.Point{}
	il := parentIL.Add(geom.UnitAt(cfg.GR).Scale(cfg.HeadSpacing()))
	ils := NeighborILs(cfg, il, parentIL, false)
	if len(ils) != 3 {
		t.Fatalf("small head has %d neighbor ILs, want 3", len(ils))
	}
	outward := il.Sub(parentIL)
	for i, p := range ils {
		if math.Abs(p.Dist(il)-cfg.HeadSpacing()) > 1e-9 {
			t.Errorf("IL %d distance wrong", i)
		}
		// Forward ILs are within ±60° of the outward direction.
		a := geom.SignedAngle(outward, p.Sub(il))
		if math.Abs(a) > math.Pi/3+1e-9 {
			t.Errorf("IL %d at angle %v rad beyond ±60°", i, a)
		}
		// None of the forward ILs is the parent's IL.
		if p.Dist(parentIL) < 1e-9 {
			t.Errorf("IL %d is the parent's IL", i)
		}
	}
}

func TestNeighborILsLieOnLattice(t *testing.T) {
	// The ILs a child computes must coincide with lattice points of the
	// ideal structure anchored at the root: deviation must not
	// accumulate (paper §3.2).
	cfg := testConfig()
	root := geom.Point{}
	rootILs := NeighborILs(cfg, root, root, true)
	child := rootILs[2]
	grand := NeighborILs(cfg, child, root, false)
	// Every grandchild IL must be √3R from child and either √3R or 2·...
	// from root — i.e. a lattice point. Check against the root's own
	// 2-ring lattice by distance tests.
	for _, p := range grand {
		dRoot := p.Dist(root)
		ok := false
		for _, want := range []float64{cfg.HeadSpacing(), cfg.HeadSpacing() * math.Sqrt(3), 2 * cfg.HeadSpacing()} {
			if math.Abs(dRoot-want) < 1e-6 {
				ok = true
			}
		}
		if !ok {
			t.Errorf("grandchild IL %v at non-lattice distance %v from root", p, dRoot)
		}
	}
}

func TestNeighborILsDegenerateParent(t *testing.T) {
	cfg := testConfig()
	il := geom.Point{X: 5, Y: 5}
	// Corrupted state: parent IL equals own IL. Must not panic and must
	// still return 3 well-formed ILs.
	ils := NeighborILs(cfg, il, il, false)
	if len(ils) != 3 {
		t.Fatalf("got %d ILs", len(ils))
	}
	for _, p := range ils {
		if math.Abs(p.Dist(il)-cfg.HeadSpacing()) > 1e-9 {
			t.Error("degenerate case produced malformed IL")
		}
	}

	// The reference direction falls back to GR itself, not to the angle
	// of GR's unit vector (refAngle): the forward ILs are then bit for
	// bit those of the big node's full ring, which every boundary rescan
	// shares. GR = 0.01 is a direction whose unit vector's angle reads
	// 0.009999999999999998.
	cfg.GR = 0.01
	il = geom.Point{}
	ils = NeighborILs(cfg, il, il, false)
	ring := NeighborILs(cfg, il, il, true)
	if want := il.Add(geom.UnitAt(cfg.GR).Scale(cfg.HeadSpacing())); ils[1] != want || ring[0] != want {
		t.Errorf("GR-direction ILs %v (forward) and %v (ring), want %v", ils[1], ring[0], want)
	}
	if ils[2] != ring[1] {
		t.Errorf("forward IL at GR+60° = %v, ring has %v", ils[2], ring[1])
	}
}

func TestSearchSectorRoot(t *testing.T) {
	cfg := testConfig()
	s := SearchSector(cfg, geom.Point{}, geom.Point{}, true)
	// Full circle: contains points in every direction within radius.
	for _, theta := range []float64{0, 1, 2, 3, -1, -2} {
		p := geom.Point{}.Add(geom.UnitAt(theta).Scale(cfg.SearchRadius() * 0.9))
		if !s.Contains(p) {
			t.Errorf("root sector missing direction %v", theta)
		}
	}
}

func TestSearchSectorSmallHead(t *testing.T) {
	cfg := testConfig()
	parentIL := geom.Point{}
	il := geom.Point{X: cfg.HeadSpacing(), Y: 0}
	s := SearchSector(cfg, il, parentIL, false)

	forward := il.Add(geom.UnitAt(0).Scale(cfg.R))
	if !s.Contains(forward) {
		t.Error("sector must contain the forward direction")
	}
	if s.Contains(parentIL) {
		t.Error("sector must not contain the parent's IL")
	}
	// The widened edge: a node at 60°+α/2 must be inside.
	edge := il.Add(geom.UnitAt(math.Pi/3 + cfg.Alpha()/2).Scale(cfg.R))
	if !s.Contains(edge) {
		t.Error("sector must include the ±α widening")
	}
	beyond := il.Add(geom.UnitAt(math.Pi/3 + 2*cfg.Alpha()).Scale(cfg.R))
	if s.Contains(beyond) {
		t.Error("sector too wide")
	}
}

// rankCandidates orders the nodes in CA(il) — candidates for heading the
// cell whose ideal location is il — by the paper's ⟨d, |A|, A⟩ key
// (HEAD_SELECT Step 4). pos maps candidate IDs to their positions; gr is
// the global reference direction. It is the full-sort oracle that
// BestCandidate's single min-scan must agree with.
func rankCandidates(il geom.Point, gr float64, ids []radio.NodeID, pos func(radio.NodeID) geom.Point) []Ranked {
	ref := geom.UnitAt(gr)
	out := make([]Ranked, 0, len(ids))
	for _, id := range ids {
		out = append(out, rankOf(il, ref, id, pos(id)))
	}
	slices.SortFunc(out, rankKeyCmp)
	return out
}

func TestRankCandidatesOrder(t *testing.T) {
	il := geom.Point{}
	pos := map[radio.NodeID]geom.Point{
		1: {X: 10, Y: 0}, // d=10, A=0
		2: {X: 5, Y: 0},  // d=5, A=0 — closest wins
		3: {X: 0, Y: 5},  // d=5, A=+90°
		4: {X: 0, Y: -5}, // d=5, A=−90°
		5: {X: -5, Y: 0}, // d=5, A=180°
	}
	ranked := rankCandidates(il, 0, []radio.NodeID{1, 2, 3, 4, 5}, func(id radio.NodeID) geom.Point { return pos[id] })
	// d has highest significance: 2,3,4 (d=5) before 1 (d=10).
	// At equal d and equal |A|, negative (clockwise) A ranks first.
	wantOrder := []radio.NodeID{2, 4, 3, 5, 1}
	for i, w := range wantOrder {
		if ranked[i].ID != w {
			t.Fatalf("rank %d = %d, want %d (full: %+v)", i, ranked[i].ID, w, ranked)
		}
	}
}

func TestRankCandidatesTieBreakByID(t *testing.T) {
	il := geom.Point{}
	samePos := geom.Point{X: 3, Y: 4}
	pos := func(radio.NodeID) geom.Point { return samePos }
	ranked := rankCandidates(il, 0, []radio.NodeID{9, 2, 5}, pos)
	if ranked[0].ID != 2 || ranked[1].ID != 5 || ranked[2].ID != 9 {
		t.Errorf("tie-break order: %+v", ranked)
	}
}

func TestBestCandidateEmpty(t *testing.T) {
	if id, ok := BestCandidate(geom.Point{}, 0, nil, func(radio.NodeID) geom.Point { return geom.Point{} }); ok || id != radio.None {
		t.Errorf("empty candidates = (%d,%v)", id, ok)
	}
}

func TestBestCandidateAtIL(t *testing.T) {
	// A node exactly on the IL beats everything.
	pos := map[radio.NodeID]geom.Point{1: {X: 1, Y: 1}, 2: {}}
	id, ok := BestCandidate(geom.Point{}, 0, []radio.NodeID{1, 2}, func(id radio.NodeID) geom.Point { return pos[id] })
	if !ok || id != 2 {
		t.Errorf("best = %d", id)
	}
}

// TestBestCandidateTiesMatchRanking checks BestCandidate, which
// computes the ⟨|A|, A⟩ angles only on exact distance ties, against
// the full rankCandidates sort on candidate sets built to tie: integer
// Pythagorean offsets around the IL (d = 5, 10 exactly), pairs
// mirrored about GR (|A| ties, A decides), coincident positions (the ID
// decides), and distances an ulp apart (5 and the next float up, each
// reached along several directions, around an IL at the origin, where
// the offsets keep every bit). Every permutation of every set must pick
// the sort's first node, for GR along and off the axes.
func TestBestCandidateTiesMatchRanking(t *testing.T) {
	up := math.Nextafter(5, 6)
	cases := []struct {
		il   geom.Point
		sets [][]geom.Vec
	}{
		{geom.Point{X: 100, Y: -40}, [][]geom.Vec{
			{{X: 3, Y: 4}, {X: 4, Y: 3}, {X: 5, Y: 0}, {X: 0, Y: -5}, {X: -3, Y: 4}, {X: -4, Y: -3}, {X: 0, Y: 5}},
			{{X: 6, Y: 8}, {X: 10, Y: 0}, {X: 3, Y: -4}, {X: 8, Y: -6}, {X: -5, Y: 0}, {X: 0, Y: -10}, {X: 4, Y: 3}},
			{{X: 3, Y: 4}, {X: 3, Y: -4}, {X: 4, Y: 3}, {X: 4, Y: -3}, {X: -3, Y: 4}, {X: -3, Y: -4}, {X: 0, Y: 5}},
			{{X: 4, Y: 3}, {X: -4, Y: 3}, {X: 3, Y: 4}, {X: -3, Y: 4}, {X: 0, Y: -5}, {X: 5, Y: 0}, {X: -5, Y: 0}},
			{{X: 3, Y: 4}, {X: 3, Y: 4}, {X: 3, Y: -4}, {X: 3, Y: -4}, {X: 5, Y: 0}, {X: 6, Y: 8}, {X: 5, Y: 0}},
			{{}, {}, {X: 3, Y: 4}, {}, {X: 6, Y: 8}, {X: 0, Y: 5}},
		}},
		{geom.Point{}, [][]geom.Vec{
			{{X: 5}, {X: up}, {Y: 5}, {Y: -up}, {X: -5}, {X: -up}, {X: 3, Y: 4}},
			{{X: up}, {X: -up}, {Y: up}, {Y: -up}, {X: 3, Y: -4}, {X: 5}, {X: 4, Y: math.Nextafter(3, 4)}},
		}},
	}
	// IDs deliberately out of position order, so the ID tie-break is
	// not the input order.
	ids := []radio.NodeID{41, 7, 19, 3, 28, 12, 35}
	for ci, c := range cases {
		for si, offs := range c.sets {
			pos := make(map[radio.NodeID]geom.Point, len(offs))
			set := make([]radio.NodeID, len(offs))
			for i, o := range offs {
				set[i] = ids[i]
				pos[ids[i]] = c.il.Add(o)
			}
			at := func(id radio.NodeID) geom.Point { return pos[id] }
			for _, gr := range []float64{0, math.Pi / 2, math.Pi, -math.Pi / 2, 0.3} {
				want := rankCandidates(c.il, gr, set, at)[0].ID
				perm := append([]radio.NodeID(nil), set...)
				n := 0
				permute(perm, len(perm), func() {
					n++
					if got, ok := BestCandidate(c.il, gr, perm, at); !ok || got != want {
						t.Fatalf("case %d set %d, GR %.3f, order %v: BestCandidate = %d, rankCandidates first = %d", ci, si, gr, perm, got, want)
					}
				})
				if want := factorial(len(set)); n != want {
					t.Fatalf("case %d set %d: visited %d permutations, want %d", ci, si, n, want)
				}
			}
		}
	}
	if d := (geom.Point{}).Dist(geom.Point{X: up}); d != math.Nextafter(5, 6) {
		t.Fatalf("the ulp sets' distances are %v and 5, not an ulp apart", d)
	}
}

// permute calls visit once for every ordering of s[:k] (Heap's
// algorithm), permuting s in place.
func permute(s []radio.NodeID, k int, visit func()) {
	if k <= 1 {
		visit()
		return
	}
	for i := 0; i < k-1; i++ {
		permute(s, k-1, visit)
		if k%2 == 0 {
			s[i], s[k-1] = s[k-1], s[i]
		} else {
			s[0], s[k-1] = s[k-1], s[0]
		}
	}
	permute(s, k-1, visit)
}

func factorial(n int) int {
	if n <= 1 {
		return 1
	}
	return n * factorial(n-1)
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusBootup: "bootup", StatusHead: "head", StatusWork: "work",
		StatusAssociate: "associate", StatusBigSlide: "big_slide",
		StatusBigMove: "big_move", StatusDead: "dead",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Status(0).String() != "invalid" {
		t.Error("zero status should be invalid")
	}
}

func TestStatusIsHeadRole(t *testing.T) {
	if !StatusHead.IsHeadRole() || !StatusWork.IsHeadRole() {
		t.Error("head/work must be head roles")
	}
	for _, s := range []Status{StatusBootup, StatusAssociate, StatusBigSlide, StatusBigMove, StatusDead} {
		if s.IsHeadRole() {
			t.Errorf("%v must not be a head role", s)
		}
	}
}

func TestVariantString(t *testing.T) {
	if VariantS.String() != "GS3-S" || VariantD.String() != "GS3-D" || VariantM.String() != "GS3-M" {
		t.Error("variant names wrong")
	}
	if Variant(0).String() != "invalid" {
		t.Error("zero variant should be invalid")
	}
}

func TestRemoveAddContainsID(t *testing.T) {
	ids := []radio.NodeID{1, 2, 3}
	ids = removeID(ids, 2)
	if len(ids) != 2 || containsID(ids, 2) {
		t.Errorf("removeID: %v", ids)
	}
	ids = removeID(ids, 99) // absent: unchanged
	if len(ids) != 2 {
		t.Errorf("removeID absent: %v", ids)
	}
	var nw Network // zero value: arena off, plain appends
	ids = nw.addUniqueID(ids, 1)
	if len(ids) != 2 {
		t.Errorf("addUniqueID duplicate: %v", ids)
	}
	ids = nw.addUniqueID(ids, 7)
	if !containsID(ids, 7) {
		t.Errorf("addUniqueID: %v", ids)
	}
}
