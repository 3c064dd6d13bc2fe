package core

import (
	"testing"
	"unsafe"

	"gs3/internal/fault"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// TestStopMaintenanceDrainsEngine pins that StopMaintenance eagerly
// cancels every queued sweep batch's event, so the engine reports
// nothing pending once the sweeps are stopped. Under delay jitter
// every node draws its own fire time and so sweeps in a one-node
// batch, which the same stop drains.
func TestStopMaintenanceDrainsEngine(t *testing.T) {
	nw, _ := configureDynamic(t, 300)
	runSweeps(nw, 3)
	if nw.Engine().Pending() == 0 {
		t.Fatal("expected queued sweep events while maintaining")
	}
	nw.StopMaintenance()
	if got := nw.Engine().Pending(); got != 0 {
		t.Fatalf("Engine().Pending() = %d after StopMaintenance, want 0", got)
	}
	if len(nw.pending) != 0 || len(nw.batches) != 0 {
		t.Fatalf("batch bookkeeping not cleared: pending=%d batches=%d",
			len(nw.pending), len(nw.batches))
	}
	// Restart must work from the drained state.
	nw.StartMaintenance(VariantD)
	if nw.Engine().Pending() == 0 {
		t.Fatal("restart scheduled nothing")
	}
	runSweeps(nw, 2)
	nw.StopMaintenance()
	if got := nw.Engine().Pending(); got != 0 {
		t.Fatalf("Engine().Pending() = %d after second stop, want 0", got)
	}

	inj, err := fault.NewInjector(fault.Plan{Jitter: 0.2}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(inj)
	nw.StartMaintenance(VariantD)
	runSweeps(nw, 2)
	alive := 0
	for _, id := range nw.SortedIDs() {
		if nw.Alive(id) {
			alive++
		}
	}
	if len(nw.pending) != alive || nw.Engine().Pending() != alive {
		t.Fatalf("jittered sweeps: %d batches, %d pending events, want one per alive node (%d)",
			len(nw.pending), nw.Engine().Pending(), alive)
	}
	nw.StopMaintenance()
	if got := nw.Engine().Pending(); got != 0 {
		t.Fatalf("Engine().Pending() = %d after stopping jittered sweeps, want 0", got)
	}
}

// TestQuiescentSweepZeroAllocs pins the steady-state fast path at zero
// heap allocations: once a node's recorded sweep is current, replaying
// it and crediting the replay must not allocate. The pin covers a head
// (both plain and rescan flavors recorded) and an associate.
func TestQuiescentSweepZeroAllocs(t *testing.T) {
	nw, _ := configureDynamic(t, 300)
	// Enough rounds for every node to record both sweep flavors and for
	// heads to pass (and record) a sanity check.
	runSweeps(nw, 40)

	var headID, assocID radio.NodeID = radio.None, radio.None
	for _, id := range nw.SortedIDs() {
		n := nw.node(id)
		if n == nil || n.IsBig || n.Status == StatusDead {
			continue
		}
		c := nw.cacheFor(id)
		if n.Status.IsHeadRole() && c.plain != 0 && c.rescan != 0 && c.sane {
			if headID == radio.None {
				headID = id
			}
		}
		if n.Status == StatusAssociate && c.plain != 0 {
			if assocID == radio.None {
				assocID = id
			}
		}
	}
	if headID == radio.None || assocID == radio.None {
		t.Fatalf("no cached head/associate after settling: head=%v assoc=%v", headID, assocID)
	}

	for _, tc := range []struct {
		name string
		id   radio.NodeID
	}{
		{"head", headID},
		{"associate", assocID},
	} {
		id := tc.id
		allocs := testing.AllocsPerRun(100, func() {
			if !nw.sweepOnce(id) {
				t.Fatal("quiescent sweep asked not to reschedule")
			}
			nw.creditReplays()
		})
		if allocs != 0 {
			t.Errorf("%s quiescent sweepOnce: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestQuiescentSweepReplaysAccounting checks the replay is not a silent
// skip: elided sweeps add nothing to the live counters until the batch
// boundary's credit, which then adds exactly the recorded delta once
// per replay.
func TestQuiescentSweepReplaysAccounting(t *testing.T) {
	nw, _ := configureDynamic(t, 300)
	runSweeps(nw, 40)

	var n *Node
	for _, id := range nw.SortedIDs() {
		cand := nw.node(id)
		if cand != nil && !cand.IsBig && cand.Status == StatusAssociate && nw.cacheFor(id).plain != 0 {
			n = cand
			break
		}
	}
	if n == nil {
		t.Fatal("no cached associate after settling")
	}
	want := &nw.deltas.deltas[nw.cacheFor(n.ID).plain]
	statsBefore := nw.med.Stats()
	metricsBefore := nw.metrics
	const replays = 3
	for i := 0; i < replays; i++ {
		if !nw.quiescentSweep(n) {
			t.Fatal("quiescentSweep declined a valid cached associate")
		}
	}
	if nw.med.Stats() != statsBefore || nw.metrics != metricsBefore {
		t.Error("replays credited before the batch boundary")
	}
	nw.creditReplays()
	if got := nw.med.Stats().Sub(statsBefore); got != want.statsDelta(replays) {
		t.Errorf("credited stats delta = %+v, want %+v", got, want.statsDelta(replays))
	}
	if got := nw.metrics.sub(metricsBefore); got != want.metricsDelta(replays) {
		t.Errorf("credited metrics delta = %+v, want %+v", got, want.metricsDelta(replays))
	}
	if len(nw.deltas.due) != 0 {
		t.Errorf("%d delta indices still due after the credit", len(nw.deltas.due))
	}
}

// TestSweepCacheSize pins the per-node sweep cache at 32 bytes (two
// delta-table indices, two epoch stamps, the sanity bit), next to the
// field-width audit in store.go: at million-node scale every byte of
// it is a megabyte.
func TestSweepCacheSize(t *testing.T) {
	if got := unsafe.Sizeof(sweepCache{}); got > 32 {
		t.Errorf("sizeof(sweepCache) = %d B, want <= 32", got)
	}
}
