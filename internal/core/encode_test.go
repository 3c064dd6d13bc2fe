package core

import (
	"encoding/json"
	"testing"
)

func TestSnapshotJSONRoundTrip(t *testing.T) {
	nw, _ := configureGrid(t, 100, 450)
	snap := nw.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	if back.BigID != snap.BigID || back.Time != snap.Time {
		t.Errorf("header differs: %v/%v vs %v/%v", back.BigID, back.Time, snap.BigID, snap.Time)
	}
	if back.Config.R != snap.Config.R || back.Config.Rt != snap.Config.Rt {
		t.Errorf("config differs")
	}
	if len(back.Nodes) != len(snap.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(back.Nodes), len(snap.Nodes))
	}
	for i, v := range snap.Nodes {
		b := back.Nodes[i]
		if b.ID != v.ID || b.Status != v.Status || b.Pos != v.Pos || b.IL != v.IL ||
			b.Parent != v.Parent || b.Head != v.Head || b.Hops != v.Hops ||
			b.Candidate != v.Candidate || b.Spiral != v.Spiral {
			t.Fatalf("node %d differs:\n got %+v\nwant %+v", v.ID, b, v)
		}
		if len(b.Children) != len(v.Children) || len(b.Neighbors) != len(v.Neighbors) {
			t.Fatalf("node %d link lists differ", v.ID)
		}
	}
}

func TestSnapshotJSONInvariantAfterRoundTrip(t *testing.T) {
	// A decoded snapshot must still satisfy the machine checks — the
	// encoding loses nothing the checker needs. (Checked indirectly via
	// identical structural fields above; here we re-run a structural
	// walk on the decoded form.)
	nw, _ := configureGrid(t, 100, 450)
	data, err := json.Marshal(nw.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	heads := back.Heads()
	if len(heads) < 7 {
		t.Fatalf("decoded snapshot lost heads: %d", len(heads))
	}
	for _, h := range heads {
		if h.Pos.Dist(h.IL) > back.Config.Rt+1e-9 {
			t.Errorf("decoded head %d off its IL", h.ID)
		}
	}
}

func TestSnapshotJSONRejectsGarbage(t *testing.T) {
	var s Snapshot
	if err := json.Unmarshal([]byte(`{"config":{"r":0}}`), &s); err == nil {
		t.Error("zero R accepted")
	}
	if err := json.Unmarshal([]byte(`{"config":{"r":100},"nodes":[{"status":"nope"}]}`), &s); err == nil {
		t.Error("unknown status accepted")
	}
	if err := json.Unmarshal([]byte(`{`), &s); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Node IDs must be strictly ascending and non-negative, as
	// Network.Snapshot emits them: View binary-searches them and the
	// checker indexes by them.
	for name, nodes := range map[string]string{
		"negative":     `[{"id":-1,"status":"head"}]`,
		"duplicate":    `[{"id":3,"status":"head"},{"id":3,"status":"associate"}]`,
		"out of order": `[{"id":0,"status":"head"},{"id":5,"status":"head"},{"id":2,"status":"associate"}]`,
	} {
		data := `{"config":{"r":100,"rt":25},"nodes":` + nodes + `}`
		if err := json.Unmarshal([]byte(data), &s); err == nil {
			t.Errorf("%s node IDs accepted: %s", name, nodes)
		}
	}
}
