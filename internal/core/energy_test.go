package core

import (
	"testing"
)

// perSendNetwork builds a configured network with the per-send energy
// model active: big batteries, zero duty dissipation (so every joule
// lost is a transmission), and maintenance running.
func perSendNetwork(t *testing.T) *Network {
	t.Helper()
	nw, _ := configureGridFresh(t, 100, 400)
	nw.cfg.InitialEnergy = 1e6
	nw.cfg.AssociateDissipation = 0
	nw.cfg.BroadcastCost = 0.5
	nw.cfg.UnicastCost = 0.25
	for _, id := range nw.SortedIDs() {
		nw.coldOf(id).Energy = 1e6
	}
	nw.StartMaintenance(VariantD)
	return nw
}

func TestPerSendCostsDrainSenders(t *testing.T) {
	nw := perSendNetwork(t)
	runSweeps(nw, 5)
	drained := 0
	for _, v := range nw.Snapshot().Nodes {
		if v.IsBig {
			continue
		}
		if v.Energy > 1e6 {
			t.Fatalf("node %d gained energy: %v", v.ID, v.Energy)
		}
		if v.Energy < 1e6 {
			drained++
		}
	}
	if drained == 0 {
		t.Error("no node paid for any transmission in 5 sweeps")
	}
	// Total drain must equal what the medium actually sent during the
	// sweeps (the big node sends for free, so only bound from above).
	stats := nw.med.Stats()
	maxDrain := 0.5*float64(stats.Broadcasts) + 0.25*float64(stats.Unicasts)
	var total float64
	for _, v := range nw.Snapshot().Nodes {
		total += 1e6 - v.Energy
	}
	if total <= 0 || total > maxDrain {
		t.Errorf("total drain %v outside (0, %v]", total, maxDrain)
	}
}

func TestEnergyDepletionKillsAfterAction(t *testing.T) {
	nw := perSendNetwork(t)
	victim := someSmallHead(t, nw, 400, nw.cfg.HeadSpacing())
	// One broadcast (cost 0.5) empties this battery; death must follow
	// at the latest after the periodic boundary rescan (every 5th
	// sweep), which every head's inter-cell duty runs unconditionally.
	nw.coldOf(victim.ID).Energy = 0.4
	runSweeps(nw, 6)
	if n := nw.node(victim.ID); n.Status != StatusDead {
		t.Fatalf("depleted head still %v with energy %v", n.Status, nw.coldOf(victim.ID).Energy)
	}
	// Healing proceeds: a head-role node reappears near the victim's IL.
	runSweeps(nw, 4)
	found := false
	for _, h := range nw.Snapshot().Heads() {
		if h.IL.Dist(victim.IL) < nw.cfg.Rt && h.ID != victim.ID {
			found = true
		}
	}
	if !found {
		t.Error("no replacement head after energy death")
	}
}

func TestSendCostsDisableSweepCache(t *testing.T) {
	nw, _ := configureGridFresh(t, 100, 200)
	if !nw.cacheable() {
		t.Fatal("baseline network should be cacheable")
	}
	nw.cfg.InitialEnergy = 100
	nw.cfg.BroadcastCost = 1
	if nw.cacheable() {
		t.Error("per-send costs must force the full sweep path")
	}
	nw.cfg.BroadcastCost = 0
	if !nw.cacheable() {
		t.Error("zero-cost energy model should not disable the cache")
	}
}

func TestSendHookRemovedOnStop(t *testing.T) {
	nw := perSendNetwork(t)
	runSweeps(nw, 1)
	nw.StopMaintenance()
	victim := someSmallHead(t, nw, 400, nw.cfg.HeadSpacing())
	before := nw.coldOf(victim.ID).Energy
	nw.med.Broadcast(victim.ID, nw.med.Audience(nil, victim.ID, nw.cfg.SearchRadius()))
	if got := nw.coldOf(victim.ID).Energy; got != before {
		t.Errorf("broadcast after StopMaintenance drained %v", before-got)
	}
}
