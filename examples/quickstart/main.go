// Quickstart: deploy a sensor field, self-configure it into the GS³
// cellular hexagonal structure, and inspect the result.
package main

import (
	"fmt"
	"log"

	"gs3"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A dense field: big node (the sink) at the center of a 500-unit
	// disk, small sensors on a jittered grid. A Poisson deployment via
	// gs3.PoissonDeployment works the same way.
	positions, err := gs3.GridDeployment(500, 20, 0.2, 42)
	if err != nil {
		return err
	}
	fmt.Printf("deployed %d nodes\n", len(positions))

	net, err := gs3.New(gs3.Options{
		CellRadius: 100, // the ideal cell radius R
	}, positions)
	if err != nil {
		return err
	}

	// GS³-S: one top-down diffusing computation from the big node.
	elapsed, err := net.Configure()
	if err != nil {
		return err
	}
	fmt.Printf("self-configured in %.2f virtual seconds\n", elapsed)

	// Inspect the structure: hexagonal cells of radius ≈ R, one head
	// each, heads forming a tree rooted at the big node.
	cells := net.Cells()
	fmt.Printf("cells: %d\n", len(cells))
	for _, c := range cells[:min(5, len(cells))] {
		fmt.Printf("  head %4d  hops=%d  members=%3d  IL=(%.0f,%.0f)  boundary=%v\n",
			c.Head, c.Hops, len(c.Members), c.IL.X, c.IL.Y, c.Boundary)
	}

	// Machine-check the paper's invariant (Theorem 1).
	if violations := net.Verify(); len(violations) > 0 {
		return fmt.Errorf("invariant violated: %v", violations[0])
	}
	fmt.Println("invariant SI holds: hexagonal structure with bounded radii")

	s := net.Stats()
	fmt.Printf("mean cell radius %.1f (R=100), mean neighbor-head distance %.1f (√3·R≈173.2)\n",
		s.MeanCellRadius, s.MeanNeighborDist)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
