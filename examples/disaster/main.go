// Disaster recovery: the paper's motivating scenario. A commander's
// vehicle (the big node) moves through a disaster field of deployed
// sensors; sensors fail in bursts (collapsing structures), fresh ones
// are air-dropped, and the whole time the command post needs situation
// reports collected over the self-healing cell structure, with a
// conflict-free radio channel plan for the cells.
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
	positions, err := gs3.GridDeployment(450, 20, 0.2, 31)
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
	net.EnableTracing(50000)
	fmt.Printf("field online: %d cells over %d nodes\n", len(net.Cells()), net.Stats().Nodes)

	// The cells get a reuse-3 channel plan so neighboring cells never
	// interfere.
	plan, err := net.ChannelPlan()
	if err != nil {
		return err
	}
	chCount := map[int]int{}
	for _, ch := range plan {
		chCount[ch]++
	}
	fmt.Printf("channel plan: %d cells on ch0, %d on ch1, %d on ch2 (3 channels total)\n",
		chCount[0], chCount[1], chCount[2])

	commanderPath := []gs3.Point{
		{X: 120, Y: 0}, {X: 240, Y: 60}, {X: 160, Y: 180}, {X: 0, Y: 120},
	}
	for leg, waypoint := range commanderPath {
		// The commander advances.
		net.Move(0, waypoint)

		// A structure collapses: a burst of casualties near a point.
		blast := gs3.Point{X: -150 + float64(leg)*90, Y: -120}
		casualties := 0
		for _, c := range net.Cells() {
			for _, m := range append(c.Members, c.Head) {
				info, ok := net.NodeInfo(m)
				if !ok || info.IsBig {
					continue
				}
				if math.Hypot(info.Pos.X-blast.X, info.Pos.Y-blast.Y) < 60 {
					net.Kill(m)
					casualties++
				}
			}
		}

		// Reinforcements are air-dropped around the blast site.
		for i := 0; i < 25; i++ {
			p := gs3.Point{
				X: blast.X + float64(i%5-2)*22,
				Y: blast.Y + float64(i/5-2)*22,
			}
			net.Join(p)
		}

		net.RunFor(12) // the structure heals and the commander's proxy tracks

		// Situation report: collect every surviving sensor's reading
		// (here: 1.0 = alive and reporting) over the head graph.
		readings := map[gs3.NodeID]float64{}
		for _, c := range net.Cells() {
			for _, m := range append(c.Members, c.Head) {
				readings[m] = 1
			}
		}
		rep, err := net.Collect(readings)
		if err != nil {
			return err
		}
		fmt.Printf("leg %d: commander at (%4.0f,%4.0f)  casualties=%2d  cells=%d  report: %d/%d sensors in %d+%d msgs (depth %d)\n",
			leg+1, waypoint.X, waypoint.Y, casualties, len(net.Cells()),
			rep.Count, len(readings), rep.IntraMessages, rep.InterMessages, rep.MaxDepth)
	}

	if v := net.Verify(); len(v) > 0 {
		return fmt.Errorf("invariant violated: %s", v[0])
	}
	counts := net.TraceCounts()
	fmt.Printf("protocol events: %d head shifts, %d promotions, %d joins, %d deaths, %d proxy changes\n",
		counts["head_shift"], counts["candidate_promotion"], counts["join"], counts["death"], counts["proxy_change"])
	fmt.Println("invariant holds: the structure survived the whole operation")
	return nil
}
