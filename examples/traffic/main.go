// Traffic: route real packets over the GS³ structure in three windows —
// a settled network delivering everything, the same network carrying
// load while it heals a mass die-off, and the recovered structure back
// at full delivery. The structure is not just a pretty hexagon: it is a
// routing substrate, and this example measures what it costs to keep
// routing while GS³-D repairs it.
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
	positions, err := gs3.GridDeployment(350, 12, 0.15, 7)
	if err != nil {
		return err
	}
	net, err := gs3.New(gs3.Options{CellRadius: 60}, positions)
	if err != nil {
		return err
	}
	if _, err := net.Configure(); err != nil {
		return err
	}
	net.EnableSelfHealing(gs3.Dynamic)
	net.RunFor(15) // settle: fill candidate lists and neighbor tables
	fmt.Printf("configured: %d nodes, %d cells\n", len(positions), len(net.Cells()))

	spec := gs3.TrafficSpec{Packets: 5000, Rate: 1500, P2PFraction: 0.3, Seed: 7}

	// Window 1: the settled structure. Convergecast readings climb the
	// parent tree; point-to-point packets hop cell to cell by greedy
	// geographic forwarding. Nothing is lost and nothing detours.
	rep, err := net.ServeTraffic(spec)
	if err != nil {
		return err
	}
	fmt.Printf("settled:   delivered %.1f%%, p99 latency %.2fs, %.0f mean head forwards, detours=%d retries=%d\n",
		100*rep.DeliveryRatio, rep.LatencyP99, float64(rep.Forwards)/float64(rep.HeadsUsed), rep.Detours, rep.Retries)

	// Window 2: kill every node within 160 units of an off-center cell —
	// several whole cells, heads included — then immediately push the
	// same load while healing runs. The greedy rule simply skips dead
	// neighbor heads, so packets bend around the crater; a stalled hop
	// retries after half a heartbeat, by which time head shift has
	// usually refilled the route. Delivery barely moves — the paper's
	// locality claim, measured on live traffic instead of asserted.
	var crater gs3.Point
	for _, c := range net.Cells() {
		if !c.IsBig && math.Hypot(c.IL.X, c.IL.Y) > 150 {
			crater = c.IL
			break
		}
	}
	killed := 0
	for _, c := range net.Cells() {
		for _, m := range append(c.Members, c.Head) {
			if info, ok := net.NodeInfo(m); ok {
				if math.Hypot(info.Pos.X-crater.X, info.Pos.Y-crater.Y) < 160 {
					net.Kill(m)
					killed++
				}
			}
		}
	}
	spec.Seed = 8
	rep, err = net.ServeTraffic(spec)
	if err != nil {
		return err
	}
	fmt.Printf("healing:   killed %d nodes, delivered %.1f%%, worst latency %.2fs, detours=%d retries=%d\n",
		killed, 100*rep.DeliveryRatio, rep.LatencyMax, rep.Detours, rep.Retries)

	// Window 3: let healing finish, then measure again. The structure
	// has re-formed around the crater and delivery recovers.
	net.RunFor(20)
	spec.Seed = 9
	rep, err = net.ServeTraffic(spec)
	if err != nil {
		return err
	}
	fmt.Printf("recovered: delivered %.1f%%, p99 latency %.2fs, detours=%d retries=%d, violations=%d\n",
		100*rep.DeliveryRatio, rep.LatencyP99, rep.Detours, rep.Retries, len(net.Verify()))
	return nil
}
