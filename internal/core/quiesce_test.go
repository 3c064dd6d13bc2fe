package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"gs3/internal/fault"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
)

// stopDrains stops maintenance on nw and runs two heartbeats: the
// queued sweep events fire as no-ops, so no sweep runs and the engine
// drains. A bounded run, because Run(0) never returns if the stop
// leaves the sweep loop running.
func stopDrains(t *testing.T, nw *Network, leg string) {
	t.Helper()
	bodies, replays, _ := nw.SweepWork()
	nw.StopMaintenance()
	runSweeps(nw, 2)
	if b, r, _ := nw.SweepWork(); b != bodies || r != replays {
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
	bodies, replays, _ := nw.SweepWork()
	nw.StartMaintenance(VariantD)
	runSweeps(nw, 1)
	b, r, _ := nw.SweepWork()
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
		c := nw.recordOf(id)
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
		if cand != nil && !cand.IsBig && cand.Status == StatusAssociate && nw.recordOf(id).plain != 0 {
			n = cand
			break
		}
	}
	if n == nil {
		t.Fatal("no cached associate after settling")
	}
	want := &nw.deltas.deltas[nw.recordOf(n.ID).plain]
	statsBefore := nw.med.Stats()
	metricsBefore := nw.metrics
	const replays = 3
	for i := 0; i < replays; i++ {
		if !nw.quiescentSweep(n.ID) {
			t.Fatal("quiescentSweep declined a valid cached associate")
		}
	}
	if nw.med.Stats() != statsBefore || nw.metrics != metricsBefore {
		t.Error("replays credited before the batch boundary")
	}
	nw.creditReplays()
	if got, w := nw.med.Stats().Sub(statsBefore), times(want.stats, replays); got != w {
		t.Errorf("credited stats delta = %+v, want %+v", got, w)
	}
	if got, w := nw.metrics.sub(metricsBefore), times(want.metrics, replays); got != w {
		t.Errorf("credited metrics delta = %+v, want %+v", got, w)
	}
	if len(nw.deltas.due) != 0 {
		t.Errorf("%d delta indices still due after the credit", len(nw.deltas.due))
	}
}

// times returns the counter struct c with every field multiplied by k,
// computed through reflection rather than the counter lists under test.
func times[T radio.Stats | Metrics](c T, k uint64) T {
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(k * v.Field(i).Uint())
	}
	return c
}

// TestNodeSize pins the two halves of a node's state next to the
// field-width audit in store.go, because at million-node scale every
// byte of them is a megabyte. The hot Node is 176 bytes, its size
// before the chose stamp joined it: Candidate sits beside Status, in
// padding, which pays for the stamp's 8 bytes. nodeCold is 16 bytes,
// its fields ordered widest first.
func TestNodeSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Node", unsafe.Sizeof(Node{}), 176},
		{"nodeCold", unsafe.Sizeof(nodeCold{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d B, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSweepCacheSize pins the per-node sweep record, the one record a
// settled sweep reads, at 32 bytes (two epoch stamps, two delta-table
// indices, the sweep counter and the sanity bit), for the same reason
// as TestNodeSize.
func TestSweepCacheSize(t *testing.T) {
	if got := unsafe.Sizeof(sweepRecord{}); got != 32 {
		t.Errorf("sizeof(sweepRecord) = %d B, want 32", got)
	}
}

// TestPendingChildRepairLeavesCacheStale pins why quiescentSweep needs
// no pendingChildRepair guard: the sweep that drops a child and sets
// the flag touches the head, whose bucket lies in its own cone, so no
// flagged head can replay before a full body repairs the child. Craters
// empty the cells of heads whose parents are small heads; after every
// heartbeat of the heal, each flagged head must hold no recorded sweep
// or one its cone's epoch has moved past.
func TestPendingChildRepairLeavesCacheStale(t *testing.T) {
	nw, cfg := configureDynamic(t, 600)
	runSweeps(nw, 2*cfg.BoundaryRescanEvery)
	var craters []geom.Point
	for _, h := range nw.Snapshot().Heads() {
		near := func(c geom.Point) bool { return c.Dist(h.Pos) < 3*cfg.HeadSpacing() }
		if p := nw.node(h.Parent); h.IsBig || p.IsBig || p.Parent == nw.BigID() || slices.ContainsFunc(craters, near) {
			continue
		}
		craters = append(craters, h.Pos)
	}
	for _, c := range craters {
		for _, id := range nw.Medium().WithinDisk(c, cfg.R, radio.None) {
			nw.Kill(id)
		}
	}
	flagged := 0
	for beat := 1; beat <= 3*cfg.BoundaryRescanEvery; beat++ {
		runSweeps(nw, 1)
		for _, id := range nw.SortedIDs() {
			n := nw.node(id)
			if n.IsBig || !n.Status.IsHeadRole() || !nw.coldOf(id).pendingChildRepair {
				continue
			}
			flagged++
			c := nw.recordOf(id)
			recorded := c.plain != 0 || c.rescan != 0
			if recorded && nw.coneEpoch(id, true) == c.regionStamp {
				t.Errorf("heartbeat %d: head %d has a pending child repair and a current sweep cache", beat, id)
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no head had a pending child repair after any heartbeat: the craters checked nothing")
	}
}
