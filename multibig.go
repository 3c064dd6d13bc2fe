package gs3

import (
	"fmt"
	"math"
)

// MultiNetwork implements the paper's §7 extension 1: a mobile dynamic
// network with multiple big nodes, where each small node chooses the
// best (closest) big node to communicate with. Each big node anchors
// its own GS³ structure over the small nodes that chose it.
type MultiNetwork struct {
	nets []*Network
	bigs []Point
}

// NewMulti creates one GS³ network per big node: every small node is
// assigned to its closest big node, and each partition self-configures
// independently (local coordination makes the structures compatible at
// the seams — cells simply stop growing where another structure's
// cells already stand; here the partitions are disjoint by
// construction).
func NewMulti(opts Options, bigNodes []Point, smallNodes []Point) (*MultiNetwork, error) {
	if len(bigNodes) == 0 {
		return nil, fmt.Errorf("gs3: at least one big node is required")
	}
	partitions := make([][]Point, len(bigNodes))
	for i, b := range bigNodes {
		partitions[i] = []Point{b}
	}
	for _, p := range smallNodes {
		best, bestD := 0, math.Inf(1)
		for i, b := range bigNodes {
			if d := math.Hypot(p.X-b.X, p.Y-b.Y); d < bestD {
				best, bestD = i, d
			}
		}
		partitions[best] = append(partitions[best], p)
	}
	m := &MultiNetwork{bigs: bigNodes}
	for i, part := range partitions {
		net, err := New(opts, part)
		if err != nil {
			return nil, fmt.Errorf("gs3: partition %d: %w", i, err)
		}
		m.nets = append(m.nets, net)
	}
	return m, nil
}

// Configure self-configures every partition and returns the slowest
// partition's virtual configuration time (they run concurrently in a
// real deployment).
func (m *MultiNetwork) Configure() (float64, error) {
	var maxT float64
	for i, net := range m.nets {
		t, err := net.Configure()
		if err != nil {
			return 0, fmt.Errorf("gs3: partition %d: %w", i, err)
		}
		maxT = math.Max(maxT, t)
	}
	return maxT, nil
}

// EnableSelfHealing enables maintenance on every partition.
func (m *MultiNetwork) EnableSelfHealing(h Healing) {
	for _, net := range m.nets {
		net.EnableSelfHealing(h)
	}
}

// RunFor advances every partition by d virtual seconds.
func (m *MultiNetwork) RunFor(d float64) {
	for _, net := range m.nets {
		net.RunFor(d)
	}
}

// Partitions returns the per-big-node networks for inspection.
func (m *MultiNetwork) Partitions() []*Network {
	return m.nets
}

// BigNodes returns the big-node positions.
func (m *MultiNetwork) BigNodes() []Point {
	return append([]Point(nil), m.bigs...)
}

// Cells returns the cells of all partitions, tagged by partition index.
func (m *MultiNetwork) Cells() map[int][]Cell {
	out := make(map[int][]Cell, len(m.nets))
	for i, net := range m.nets {
		out[i] = net.Cells()
	}
	return out
}

// Verify checks the invariant on every partition and returns all
// violations, prefixed by partition index.
func (m *MultiNetwork) Verify() []string {
	var out []string
	for i, net := range m.nets {
		for _, v := range net.Verify() {
			out = append(out, fmt.Sprintf("partition %d: %s", i, v))
		}
	}
	return out
}
