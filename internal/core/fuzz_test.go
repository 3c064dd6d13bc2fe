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
// it must either decode successfully or return an error — never panic —
// and anything it accepts must survive a marshal/unmarshal round-trip.
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
