package gs3

import (
	"testing"
)

func TestTracingCapturesConfiguration(t *testing.T) {
	pts, err := GridDeployment(300, 22, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Options{CellRadius: 100}, pts)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableTracing(10000)
	if _, err := net.Configure(); err != nil {
		t.Fatal(err)
	}
	counts := net.TraceCounts()
	if counts["head_selected"] == 0 || counts["head_org"] == 0 {
		t.Errorf("configuration events missing: %v", counts)
	}
	// One head_selected per non-big cell.
	cells := len(net.Cells())
	if counts["head_selected"] != cells-1 {
		t.Errorf("head_selected = %d, cells = %d", counts["head_selected"], cells)
	}
	// Events are time-ordered.
	evs := net.TraceEvents()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestTracingCapturesHealing(t *testing.T) {
	pts, err := GridDeployment(300, 22, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Options{CellRadius: 100}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Configure(); err != nil {
		t.Fatal(err)
	}
	net.EnableTracing(10000)
	net.EnableSelfHealing(Dynamic)
	var victim NodeID = None
	for _, c := range net.Cells() {
		if !c.IsBig {
			victim = c.Head
			break
		}
	}
	net.Kill(victim)
	net.RunFor(6)
	counts := net.TraceCounts()
	if counts["death"] == 0 {
		t.Errorf("kill not traced: %v", counts)
	}
	if counts["candidate_promotion"]+counts["head_selected"] == 0 {
		t.Errorf("healing not traced: %v", counts)
	}
	// The promotion event names the dead head as the counterpart.
	found := false
	for _, e := range net.TraceEvents() {
		if e.Kind == "candidate_promotion" && e.Other == victim {
			found = true
		}
	}
	if !found && counts["candidate_promotion"] > 0 {
		t.Error("promotion event does not reference the dead head")
	}
}

func TestTracingDisabled(t *testing.T) {
	pts, err := GridDeployment(250, 22, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Options{CellRadius: 100}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if net.TraceEvents() != nil || net.TraceCounts() != nil {
		t.Error("tracing data without EnableTracing")
	}
	net.EnableTracing(100)
	net.DisableTracing()
	if _, err := net.Configure(); err != nil {
		t.Fatal(err)
	}
	if net.TraceEvents() != nil {
		t.Error("tracing survived DisableTracing")
	}
}
