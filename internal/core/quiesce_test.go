package core

import (
	"testing"
	"unsafe"

	"gs3/internal/fault"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// stopDrains stops maintenance on nw and runs two heartbeats: the
// queued sweep events fire as no-ops, so no sweep runs and the engine
// drains. A bounded run, because Run(0) never returns if the stop
// leaves the sweep loop running.
func stopDrains(t *testing.T, nw *Network, leg string) {
	t.Helper()
	bodies, replays := nw.SweepWork()
	nw.StopMaintenance()
	runSweeps(nw, 2)
	if b, r := nw.SweepWork(); b != bodies || r != replays {
		t.Errorf("%s: %d bodies and %d replays ran after StopMaintenance, want 0",
			leg, b-bodies, r-replays)
	}
	if got := nw.Engine().Pending(); got != 0 {
		t.Errorf("%s: Engine().Pending() = %d two heartbeats after StopMaintenance, want 0", leg, got)
	}
}

// restartSweeps restarts maintenance on nw and returns how many sweeps,
// bodies plus replays, its first heartbeat runs.
func restartSweeps(nw *Network) uint64 {
	bodies, replays := nw.SweepWork()
	nw.StartMaintenance(VariantD)
	runSweeps(nw, 1)
	b, r := nw.SweepWork()
	return b - bodies + r - replays
}

// TestStopMaintenanceDrainsEngine pins StopMaintenance's contract. The
// engine cannot cancel, so every queued sweep batch is emptied and its
// event fires as a no-op: a stop drains the engine without a sweep, and
// a restart while those stale events are still queued sweeps exactly as
// a restart from a drained engine, never a node twice. Under delay
// jitter every node draws its own fire time and so sweeps in a one-node
// batch, which the same stop drains.
func TestStopMaintenanceDrainsEngine(t *testing.T) {
	nw, _ := configureDynamic(t, 300)
	runSweeps(nw, 3)
	stopDrains(t, nw, "stop")
	want := restartSweeps(nw)
	alive := 0
	for _, id := range nw.SortedIDs() {
		if nw.Alive(id) {
			alive++
		}
	}
	if want < uint64(alive) {
		t.Fatalf("restart from a drained engine ran %d sweeps in its first heartbeat, want at least one per alive node (%d)",
			want, alive)
	}

	stale, _ := configureDynamic(t, 300)
	runSweeps(stale, 3)
	stale.StopMaintenance()
	if stale.Engine().Pending() == 0 {
		t.Fatal("expected stale sweep events still queued right after StopMaintenance")
	}
	if got := restartSweeps(stale); got != want {
		t.Errorf("restart with stale sweep events queued ran %d sweeps in its first heartbeat, want %d as from a drained engine",
			got, want)
	}

	stopDrains(t, nw, "stop after restart")
	inj, err := fault.NewInjector(fault.Plan{Jitter: 0.2}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(inj)
	nw.StartMaintenance(VariantD)
	runSweeps(nw, 2)
	if got := nw.Engine().Pending(); got != alive {
		t.Fatalf("jittered sweeps: %d pending events, want one per alive node (%d)", got, alive)
	}
	stopDrains(t, nw, "jittered stop")
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
