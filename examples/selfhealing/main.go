// Self-healing: batter a configured network with the paper's
// perturbations — head deaths, a mass die-off, joins — and watch GS³-D
// mask every one of them locally.
package main

import (
	"fmt"
	"log"
	"math"

	"gs3"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	positions, err := gs3.GridDeployment(450, 20, 0.2, 7)
	if err != nil {
		return err
	}
	net, err := gs3.New(gs3.Options{CellRadius: 100}, positions)
	if err != nil {
		return err
	}
	if _, err := net.Configure(); err != nil {
		return err
	}
	net.EnableSelfHealing(gs3.Dynamic)
	fmt.Printf("configured: %d cells\n", len(net.Cells()))

	// Perturbation 1: kill three cell heads at once. Head shift — the
	// highest-ranked candidate in each cell takes over — masks it.
	killed := 0
	for _, c := range net.Cells() {
		if !c.IsBig && killed < 3 {
			net.Kill(c.Head)
			killed++
		}
	}
	net.RunFor(8)
	fmt.Printf("after killing %d heads: %d cells, violations=%d (head shift healed them)\n",
		killed, len(net.Cells()), len(net.Verify()))

	// Perturbation 2: a localized mass die-off — every node within 80
	// units of a point. Neighbor cells absorb survivors; rescans
	// re-cover the area as nodes rejoin.
	var at gs3.Point
	for _, c := range net.Cells() {
		if !c.IsBig && math.Hypot(c.IL.X, c.IL.Y) < 200 {
			at = c.IL
			break
		}
	}
	before := net.Stats()
	for _, c := range net.Cells() {
		for _, m := range append(c.Members, c.Head) {
			if info, ok := net.NodeInfo(m); ok {
				if math.Hypot(info.Pos.X-at.X, info.Pos.Y-at.Y) < 80 {
					net.Kill(m)
				}
			}
		}
	}
	net.RunFor(15)
	after := net.Stats()
	fmt.Printf("after mass die-off at (%.0f,%.0f): nodes %d→%d, uncovered=%d\n",
		at.X, at.Y, before.Nodes, after.Nodes, after.Uncovered)

	// Perturbation 3: 40 fresh nodes join near the die-off site and are
	// absorbed by the surrounding cells.
	joined := make([]gs3.NodeID, 0, 40)
	for i := 0; i < 40; i++ {
		p := gs3.Point{
			X: at.X + float64(i%7-3)*18,
			Y: at.Y + float64(i/7-2)*18,
		}
		joined = append(joined, net.Join(p))
	}
	net.RunFor(12)
	covered := 0
	for _, id := range joined {
		if info, ok := net.NodeInfo(id); ok && info.Role != gs3.RoleBootup {
			covered++
		}
	}
	fmt.Printf("after 40 joins: %d/40 absorbed into cells\n", covered)

	if v := net.Verify(); len(v) > 0 {
		return fmt.Errorf("invariant violated at the end: %v", v[0])
	}
	fmt.Println("invariant holds after every perturbation — self-healing is local and complete")
	s := net.Stats()
	fmt.Printf("healing actions: headShifts=%d cellShifts=%d\n", s.HeadShifts, s.CellShifts)
	return nil
}
