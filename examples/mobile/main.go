// Mobile sink: the big node (a commander's vehicle, say) drives across
// the field. GS³-M keeps the head graph rooted correctly the whole way
// through the proxy mechanism, and Theorem 11 keeps each move's impact
// local.
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
	positions, err := gs3.GridDeployment(500, 20, 0.2, 11)
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
	net.EnableSelfHealing(gs3.Mobile)
	net.RunFor(6) // let the tree settle

	// Drive the big node along a path in steps.
	path := []gs3.Point{
		{X: 90, Y: 30},
		{X: 180, Y: 60},
		{X: 260, Y: 40},
		{X: 180, Y: -40},
		{X: 0, Y: 0}, // and home again
	}
	for i, p := range path {
		net.Move(0, p)
		net.RunFor(10)

		info, _ := net.NodeInfo(0)
		role := "heading a cell"
		if info.Role == gs3.RoleBigMoving {
			role = "moving (represented by proxy)"
		}
		fmt.Printf("leg %d: big node at (%.0f,%.0f), %s\n", i+1, p.X, p.Y, role)

		// Every node still routes to the sink along the head graph.
		broken := 0
		checked := 0
		for _, c := range net.Cells() {
			for _, m := range c.Members[:min(2, len(c.Members))] {
				checked++
				route := net.RouteToSink(m)
				if len(route) == 0 {
					broken++
					continue
				}
				last, ok := net.NodeInfo(route[len(route)-1])
				// The route ends at the big node, or at its proxy while
				// the big node is between cells.
				if !ok || (!last.IsBig && info.Role != gs3.RoleBigMoving) {
					broken++
				}
			}
		}
		fmt.Printf("        routes checked=%d broken=%d, cells=%d\n", checked, broken, len(net.Cells()))
	}

	// Home again: the big node must have reclaimed its original cell.
	info, _ := net.NodeInfo(0)
	if info.Role != gs3.RoleHead {
		return fmt.Errorf("big node did not reclaim headship at home (role %v)", info.Role)
	}
	home := net.RouteToSink(pickAnyMember(net))
	fmt.Printf("back home: big node heads its cell again; sample route length %d\n", len(home))

	if v := net.Verify(); len(v) > 0 {
		return fmt.Errorf("invariant violated: %v", v[0])
	}
	fmt.Println("invariant held through the whole journey")
	return nil
}

func pickAnyMember(net *gs3.Network) gs3.NodeID {
	best := gs3.None
	bestDist := 0.0
	for _, c := range net.Cells() {
		if len(c.Members) == 0 {
			continue
		}
		d := math.Hypot(c.IL.X, c.IL.Y)
		if d > bestDist {
			best, bestDist = c.Members[0], d
		}
	}
	return best
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
