package core

import (
	"encoding/json"
	"testing"

	"gs3/internal/field"
	"gs3/internal/rng"
)

// fuzzSeedSnapshot builds a small configured network and returns its
// marshaled snapshot — a structurally valid starting point for the
// fuzzer to corrupt.
func fuzzSeedSnapshot(f *testing.F) []byte {
	cfg := DefaultConfig(100)
	nw, err := NewNetwork(cfg, testRadioParams(cfg))
	if err != nil {
		f.Fatal(err)
	}
	dep, err := field.Grid(80, cfg.Rt*0.9, 0.15, rng.New(7))
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range dep.Positions {
		if _, err := nw.AddNode(p, i == 0); err != nil {
			f.Fatal(err)
		}
	}
	if err := nw.StartConfiguration(); err != nil {
		f.Fatal(err)
	}
	nw.Engine().Run(0)
	data, err := json.Marshal(nw.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzSnapshotUnmarshal feeds corrupt snapshot bytes to UnmarshalJSON:
// it must either decode successfully or return an error — never panic.
// Anything it accepts lists strictly ascending node IDs ≥ 0, so View
// finds every node, and survives a marshal/unmarshal round-trip.
func FuzzSnapshotUnmarshal(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"config":{"r":-5}}`))
	f.Add([]byte(`{"config":{"r":100,"rt":0}}`))
	f.Add([]byte(`{"config":{"r":100,"rt":500}}`))
	f.Add([]byte(`{"config":{"r":100,"rt":25},"nodes":[{"status":"bogus"}]}`))
	f.Add([]byte(`{"config":{"r":100,"rt":25},"nodes":[{"id":-1,"status":"head"}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := s.UnmarshalJSON(data); err != nil {
			return
		}
		for i, v := range s.Nodes {
			if v.ID < 0 || (i > 0 && v.ID <= s.Nodes[i-1].ID) {
				t.Fatalf("accepted node %d: IDs not strictly ascending from 0", v.ID)
			}
			if got, ok := s.View(v.ID); !ok || got.ID != v.ID {
				t.Fatalf("View(%d) misses an accepted node", v.ID)
			}
		}
		// Accepted input: the decoded snapshot must re-encode and decode
		// to the same thing (the wire form is a fixpoint).
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted snapshot fails to marshal: %v", err)
		}
		var s2 Snapshot
		if err := s2.UnmarshalJSON(out); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
	})
}
