package fault

import (
	"math"
	"testing"

	"gs3/internal/rng"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"loss", Plan{Loss: 0.2}, true},
		{"full", Plan{Loss: 0.1, Dup: 0.05, Jitter: 0.3, BlackoutRate: 0.01, BlackoutSweeps: 4}, true},
		{"loss negative", Plan{Loss: -0.1}, false},
		{"loss one", Plan{Loss: 1}, false},
		{"dup one", Plan{Dup: 1}, false},
		{"jitter negative", Plan{Jitter: -1}, false},
		{"blackout rate one", Plan{BlackoutRate: 1, BlackoutSweeps: 2}, false},
		{"blackout without duration", Plan{BlackoutRate: 0.1}, false},
		// Non-finite values would put NaN or infinite delays on the
		// event engine, which rejects them.
		{"loss NaN", Plan{Loss: math.NaN()}, false},
		{"dup NaN", Plan{Dup: math.NaN()}, false},
		{"jitter NaN", Plan{Jitter: math.NaN()}, false},
		{"jitter infinite", Plan{Jitter: math.Inf(1)}, false},
		{"blackout rate NaN", Plan{BlackoutRate: math.NaN(), BlackoutSweeps: 2}, false},
		{"blackout duration NaN", Plan{BlackoutRate: 0.1, BlackoutSweeps: math.NaN()}, false},
		{"blackout duration infinite", Plan{BlackoutRate: 0.1, BlackoutSweeps: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPlanActive(t *testing.T) {
	if (Plan{}).Active() {
		t.Error("zero plan reports active")
	}
	for _, p := range []Plan{{Loss: 0.1}, {Dup: 0.1}, {Jitter: 0.1}, {BlackoutRate: 0.1, BlackoutSweeps: 1}} {
		if !p.Active() {
			t.Errorf("plan %+v reports inactive", p)
		}
	}
}

// A nil injector and a zero-plan injector must answer every query with
// "no fault" and consume no randomness.
func TestNoFaultPathsConsumeNothing(t *testing.T) {
	var nilInj *Injector
	if nilInj.Active() || nilInj.DropDelivery() || nilInj.DupDelivery() {
		t.Error("nil injector produced a fault")
	}
	if d := nilInj.JitterDelay(1.5); d != 1.5 {
		t.Errorf("nil injector jittered delay to %v", d)
	}
	if nilInj.BlackoutStart() != 0 {
		t.Error("nil injector started a blackout")
	}

	src := rng.New(42)
	before := *src
	inj, err := NewInjector(Plan{}, src)
	if err != nil {
		t.Fatal(err)
	}
	inj.DropDelivery()
	inj.DupDelivery()
	inj.JitterDelay(3)
	inj.BlackoutStart()
	if *src != before {
		t.Error("zero-plan injector consumed randomness")
	}
}

func TestNewInjectorRejectsBadInput(t *testing.T) {
	if _, err := NewInjector(Plan{Loss: 2}, rng.New(1)); err == nil {
		t.Error("invalid plan accepted")
	}
	if _, err := NewInjector(Plan{Loss: 0.1}, nil); err == nil {
		t.Error("active plan without source accepted")
	}
	if _, err := NewInjector(Plan{}, nil); err != nil {
		t.Errorf("zero plan with nil source rejected: %v", err)
	}
}

// Identical (seed, plan) pairs must replay the exact fault sequence.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Loss: 0.3, Dup: 0.1, Jitter: 0.5, BlackoutRate: 0.05, BlackoutSweeps: 3}
	run := func() []float64 {
		inj, err := NewInjector(plan, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 200; i++ {
			if inj.DropDelivery() {
				out = append(out, 1)
			}
			if inj.DupDelivery() {
				out = append(out, 2)
			}
			out = append(out, inj.JitterDelay(1))
			if s := inj.BlackoutStart(); s != 0 {
				out = append(out, s)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Loss frequency must track the configured probability.
func TestDropDeliveryFrequency(t *testing.T) {
	inj, err := NewInjector(Plan{Loss: 0.2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	drops := 0
	for i := 0; i < n; i++ {
		if inj.DropDelivery() {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.18 || got > 0.22 {
		t.Errorf("drop frequency %v, want ~0.2", got)
	}
}

func TestJitterBounds(t *testing.T) {
	inj, err := NewInjector(Plan{Jitter: 0.5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d := inj.JitterDelay(2)
		if d < 2 || d >= 3 {
			t.Fatalf("jittered delay %v outside [2, 3)", d)
		}
	}
}

func TestBlackoutDurationFloor(t *testing.T) {
	inj, err := NewInjector(Plan{BlackoutRate: 0.9, BlackoutSweeps: 0.1}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for i := 0; i < 1000; i++ {
		if s := inj.BlackoutStart(); s != 0 {
			starts++
			if s < 1 {
				t.Fatalf("blackout duration %v below one sweep", s)
			}
		}
	}
	if starts == 0 {
		t.Fatal("no blackout started at rate 0.9")
	}
}
