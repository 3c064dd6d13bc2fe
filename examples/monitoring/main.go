// Environment monitoring: the application the paper's introduction
// motivates. Sensors sample a temperature field; readings are
// aggregated cell-by-cell at the heads and forwarded up the head graph
// to the sink — the hierarchical "divide and conquer" the structure
// exists to support. The run also exercises the energy model: heads
// spend more, head/cell shift rotates the role, and the field outlives
// any single head by far.
package main

import (
	"fmt"
	"log"
	"math"

	"gs3"
)

// temperature is the synthetic field being sensed: a warm blob whose
// center drifts with time.
func temperature(p gs3.Point, t float64) float64 {
	cx, cy := 120+8*t, 60-4*t
	d2 := (p.X-cx)*(p.X-cx) + (p.Y-cy)*(p.Y-cy)
	return 15 + 25*math.Exp(-d2/(2*90*90))
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	positions, err := gs3.GridDeployment(400, 20, 0.2, 23)
	if err != nil {
		return err
	}
	net, err := gs3.New(gs3.Options{
		CellRadius:       100,
		InitialEnergy:    120,
		EnergyRate:       1,
		HeadEnergyFactor: 5,
	}, positions)
	if err != nil {
		return err
	}
	if _, err := net.Configure(); err != nil {
		return err
	}
	net.EnableSelfHealing(gs3.Dynamic)
	fmt.Printf("monitoring field with %d cells\n", len(net.Cells()))

	for round := 0; round < 6; round++ {
		net.RunFor(10)
		t := net.Now()

		// Every node samples the field; Collect aggregates cell by cell
		// at the heads and convergecasts up the head graph to the sink —
		// the in-network processing the bounded cell radius makes cheap.
		readings := map[gs3.NodeID]float64{}
		hottest, hottestVal := gs3.Point{}, -1.0
		for _, c := range net.Cells() {
			cellSum, cellN := 0.0, 0
			for _, m := range append(c.Members, c.Head) {
				info, ok := net.NodeInfo(m)
				if !ok {
					continue
				}
				v := temperature(info.Pos, t)
				readings[m] = v
				cellSum += v
				cellN++
			}
			if cellN > 0 && cellSum/float64(cellN) > hottestVal {
				hottestVal = cellSum / float64(cellN)
				hottest = c.IL
			}
		}
		agg, err := net.Collect(readings)
		if err != nil {
			return err
		}
		s := net.Stats()
		fmt.Printf("t=%5.1f  field mean %.2f°C (n=%d)  hottest cell IL=(%4.0f,%4.0f) %.2f°C  msgs intra=%d inter=%d depth=%d  headShifts=%d cellShifts=%d\n",
			t, agg.Mean, agg.Count, hottest.X, hottest.Y, hottestVal,
			agg.IntraMessages, agg.InterMessages, agg.MaxDepth, s.HeadShifts, s.CellShifts)
	}

	// The energy model forced role rotation but the structure held.
	if v := net.Verify(); len(v) > 0 {
		return fmt.Errorf("invariant violated: %v", v[0])
	}
	s := net.Stats()
	fmt.Printf("done: structure alive with %d cells after %.0fs; %d head shifts kept it so\n",
		s.Heads, net.Now(), s.HeadShifts)
	return nil
}
