package gs3

import (
	"math"
	"testing"
)

func multiSetup(t *testing.T) *MultiNetwork {
	t.Helper()
	// Two big nodes far apart; small nodes spread across both regions.
	bigs := []Point{{X: -250, Y: 0}, {X: 250, Y: 0}}
	var smalls []Point
	pts, err := GridDeployment(500, 24, 0.15, 13)
	if err != nil {
		t.Fatal(err)
	}
	smalls = append(smalls, pts[1:]...) // drop the generated center big
	m, err := NewMulti(Options{CellRadius: 100}, bigs, smalls)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMultiRequiresBigNodes(t *testing.T) {
	if _, err := NewMulti(Options{CellRadius: 100}, nil, []Point{{X: 1}}); err == nil {
		t.Error("no big nodes accepted")
	}
}

func TestMultiPartitionsByProximity(t *testing.T) {
	m := multiSetup(t)
	if len(m.Partitions()) != 2 {
		t.Fatalf("partitions = %d", len(m.Partitions()))
	}
	bigs := m.BigNodes()
	for i, net := range m.Partitions() {
		// Every node in partition i is closer to big i than to the
		// other big node.
		for _, c := range net.Cells() {
			for _, member := range c.Members {
				info, ok := net.NodeInfo(member)
				if !ok {
					continue
				}
				own := math.Hypot(info.Pos.X-bigs[i].X, info.Pos.Y-bigs[i].Y)
				other := math.Hypot(info.Pos.X-bigs[1-i].X, info.Pos.Y-bigs[1-i].Y)
				if own > other+1e-9 {
					t.Fatalf("partition %d node at %v closer to the other big node", i, info.Pos)
				}
			}
		}
	}
}

func TestMultiConfigureAndVerify(t *testing.T) {
	m := multiSetup(t)
	elapsed, err := m.Configure()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Errorf("elapsed = %v", elapsed)
	}
	cells := m.Cells()
	if len(cells[0]) < 3 || len(cells[1]) < 3 {
		t.Errorf("cells per partition: %d, %d", len(cells[0]), len(cells[1]))
	}
	if v := m.Verify(); len(v) != 0 {
		t.Errorf("violations: %v", v[:minInt(3, len(v))])
	}
}

func TestMultiHealing(t *testing.T) {
	m := multiSetup(t)
	if _, err := m.Configure(); err != nil {
		t.Fatal(err)
	}
	m.EnableSelfHealing(Dynamic)
	// Kill one head in each partition.
	for _, net := range m.Partitions() {
		for _, c := range net.Cells() {
			if !c.IsBig {
				net.Kill(c.Head)
				break
			}
		}
	}
	m.RunFor(8)
	if v := m.Verify(); len(v) != 0 {
		t.Errorf("violations after healing: %v", v[:minInt(3, len(v))])
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
