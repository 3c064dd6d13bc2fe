package sim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// TestEngineMatchesHeapRef drives the Engine and the container/heap
// oracle (heapref_test.go) through identical randomized
// At/After/Step/Run/RunUntil sequences and asserts that every
// observable matches after every operation: the exact fire order (event
// ids in sequence), Now, Fired, Scheduled, Pending, and NextEventTime.
// Fired events occasionally schedule zero-delay and short-delay
// follow-ups, which exercises inserts at the current instant while the
// queue drains. `make race` runs this under the race detector.
func TestEngineMatchesHeapRef(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lockstep(t, seed, 2000)
		})
	}
}

// side is one engine's half of the lockstep state: its fire log and the
// counter chained callbacks draw follow-up ids from. Fire order is
// asserted identical after every operation, so the two sides' chain
// counters advance in lockstep and chained ids stay comparable.
type side struct {
	log     []int
	chainID int
}

func lockstep(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	ref := newHeapEngine()
	var ns, rs side
	nextID := 1000000 // chained ids count up from here; driver ids count up from 0
	ns.chainID, rs.chainID = nextID, nextID
	checked := 0 // logs compared up to this index

	// record logs one fire on side s, and with the given chain depth
	// returns the id of a follow-up to schedule at zero or short delay
	// — the mid-drain insert path.
	record := func(s *side, id, chain int) (cid int, delay float64, ok bool) {
		s.log = append(s.log, id)
		if chain == 0 {
			return 0, 0, false
		}
		cid = s.chainID
		s.chainID++
		if chain%2 == 0 {
			delay = 0.25
		}
		return cid, delay, true
	}

	// The engine side registers one kind whose payload is the event id;
	// chains remembers each id's remaining chain depth.
	chains := make(map[int]int)
	var kind Kind
	kind = eng.Register(func(p int32) {
		id := int(p)
		chain := chains[id]
		if cid, d, ok := record(&ns, id, chain); ok {
			chains[cid] = chain - 1
			eng.After(d, kind, int32(cid))
		}
	})
	// The oracle keeps its closures.
	var mkFn func(id, chain int) func()
	mkFn = func(id, chain int) func() {
		return func() {
			if cid, d, ok := record(&rs, id, chain); ok {
				ref.After(d, "chain", mkFn(cid, chain-1))
			}
		}
	}

	check := func(op string) {
		t.Helper()
		if len(ns.log) != len(rs.log) {
			t.Fatalf("%s: fired %d events, oracle fired %d", op, len(ns.log), len(rs.log))
		}
		for ; checked < len(ns.log); checked++ {
			if ns.log[checked] != rs.log[checked] {
				t.Fatalf("%s: fire order diverged at event %d: got id %d, oracle id %d",
					op, checked, ns.log[checked], rs.log[checked])
			}
		}
		if eng.Now() != ref.Now() {
			t.Fatalf("%s: Now=%v, oracle %v", op, eng.Now(), ref.Now())
		}
		if eng.Fired() != ref.Fired() {
			t.Fatalf("%s: Fired=%d, oracle %d", op, eng.Fired(), ref.Fired())
		}
		if eng.Scheduled() != ref.Scheduled() {
			t.Fatalf("%s: Scheduled=%d, oracle %d", op, eng.Scheduled(), ref.Scheduled())
		}
		if got, want := eng.Pending(), ref.Pending(); got != want {
			t.Fatalf("%s: Pending=%d, oracle %d", op, got, want)
		}
		gn, rn := eng.NextEventTime(), ref.NextEventTime()
		if gn != rn && !(math.IsInf(gn, 1) && math.IsInf(rn, 1)) {
			t.Fatalf("%s: NextEventTime=%v, oracle %v", op, gn, rn)
		}
	}

	// Quantized delays collide times often, exercising the seq
	// tie-break; the occasional huge delay parks events in a high bucket,
	// whose refill splits it across many lower ones.
	delay := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(4000)) // far future
		default:
			return float64(rng.Intn(64)) / 8
		}
	}

	for op := 0; op < ops; op++ {
		id := op
		switch k := rng.Intn(75); {
		case k < 35: // After
			d := delay()
			chain := 0
			if rng.Intn(8) == 0 {
				chain = 1 + rng.Intn(2)
			}
			chains[id] = chain
			eng.After(d, kind, int32(id))
			ref.After(d, "ev", mkFn(id, chain))
			check("After")
		case k < 45: // At, sometimes in the past
			at := eng.Now() + delay() - float64(rng.Intn(3))
			chains[id] = 0
			errN := eng.At(at, kind, int32(id))
			_, errR := ref.At(at, "ev", mkFn(id, 0))
			if (errN != nil) != (errR != nil) {
				t.Fatalf("At(%v): err=%v, oracle err=%v", at, errN, errR)
			}
			check("At")
		case k < 57: // Step
			if gotN, gotR := eng.Step(), ref.Step(); gotN != gotR {
				t.Fatalf("Step=%v, oracle %v", gotN, gotR)
			}
			check("Step")
		case k < 67: // RunUntil
			deadline := eng.Now() + rng.Float64()*10
			if n, r := eng.RunUntil(deadline), ref.RunUntil(deadline); n != r {
				t.Fatalf("RunUntil(%v) fired %d, oracle %d", deadline, n, r)
			}
			check("RunUntil")
		default: // Run with a small cap
			limit := uint64(rng.Intn(5))
			if n, r := eng.Run(limit), ref.Run(limit); n != r {
				t.Fatalf("Run(%d) fired %d, oracle %d", limit, n, r)
			}
			check("Run")
		}
	}
	// Drain both to the end: the full residual queues must agree too.
	if n, r := eng.Run(0), ref.Run(0); n != r {
		t.Fatalf("final drain fired %d, oracle %d", n, r)
	}
	check("drain")
	if eng.Pending() != 0 {
		t.Fatalf("drained engine reports Pending=%d", eng.Pending())
	}
}

// TestEngineEdgeTimesMatchHeapRef drives the Engine and the
// container/heap oracle through times the randomized lockstep never
// draws: −0 against +0 at time 0, where the radix key must file −0 as
// +0 and fire the two in scheduling order; times on and just across
// powers of two, where the float64 exponent, and so the key's high
// bits, changes; subnormal times; and times near the float64 maximum.
// Each case schedules its first times, fires steps events, schedules
// its then times (which land on or after Now), and drains; every fire
// must match the oracle's in order, in the bits of Now, and in
// NextEventTime.
func TestEngineEdgeTimesMatchHeapRef(t *testing.T) {
	const below2, above2 = 1.9999999999999998, 2.0000000000000004
	const minNormal = 2.2250738585072014e-308
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name  string
		first []Time
		steps int
		then  []Time
	}{
		{"signed zeros", []Time{0, negZero, 0, negZero, 1}, 0, nil},
		{"negative zero behind later times", []Time{1, 2, negZero, 0.5, negZero}, 0, nil},
		{"negative zero at Now", []Time{0, 3}, 1, []Time{negZero, 0, negZero}},
		{"powers of two", []Time{4, 2, below2, 4, above2, 1, 8, 0.5, 2, 1024}, 0, nil},
		{"across a power of two", []Time{below2, 2, above2, 4}, 1, []Time{2, below2 + 1e-16, above2, 2, 3.9999999999999996, 4}},
		{"subnormals", []Time{minNormal, 5e-324, 0, 1e-310, 5e-324, 1e-320}, 2, []Time{5e-324, 1e-310, 0}},
		{"huge", []Time{1e300, 1, 1e300, math.MaxFloat64, 1e-300, 9.999999999999999e299}, 3, []Time{1e300, math.MaxFloat64, 2e300}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, ref := NewEngine(), newHeapEngine()
			var got, want []int
			kind := eng.Register(func(p int32) { got = append(got, int(p)) })
			id := 0
			schedule := func(times []Time) {
				for _, at := range times {
					i := id
					errN := eng.At(at, kind, int32(i))
					_, errR := ref.At(at, "ev", func() { want = append(want, i) })
					if (errN != nil) != (errR != nil) {
						t.Fatalf("At(%v): err=%v, oracle err=%v", at, errN, errR)
					}
					id++
				}
			}
			step := func() bool {
				if gn, rn := eng.NextEventTime(), ref.NextEventTime(); gn != rn && !(math.IsInf(gn, 1) && math.IsInf(rn, 1)) {
					t.Fatalf("NextEventTime=%v, oracle %v", gn, rn)
				}
				okN, okR := eng.Step(), ref.Step()
				if okN != okR || !slices.Equal(got, want) || math.Float64bits(eng.Now()) != math.Float64bits(ref.Now()) {
					t.Fatalf("Step=%v fired %v, Now=%v; oracle Step=%v fired %v, Now=%v", okN, got, eng.Now(), okR, want, ref.Now())
				}
				return okN
			}
			schedule(tc.first)
			for range tc.steps {
				step()
			}
			schedule(tc.then)
			for step() {
			}
			if uint64(len(got)) != eng.Scheduled() {
				t.Fatalf("fired %d of %d events", len(got), eng.Scheduled())
			}
		})
	}
}

// TestEngineSteadyStateZeroAllocs pins the schedule+fire cycle — the
// path every radio delivery and heartbeat pays — at zero allocations
// once the buckets have grown: the bucket entry is the whole event, and
// a bucket keeps its capacity. The buckets an event can land in change
// when virtual time enters a new power of two, which may grow them
// again, so the cycle is steady only between those crossings: the
// warm-up below takes virtual time past 128, and the measured cycles
// stay below 256.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	nop := nopKind(e)
	for i := 0; i < 8192; i++ {
		e.After(1+float64(i%64)/8, nop, 0)
	}
	// Warm until the buckets reach their capacity for this power of two.
	for i := 0; i < 200000; i++ {
		e.After(8, nop, 0)
		e.Step()
	}
	allocs := testing.AllocsPerRun(10000, func() {
		e.After(8, nop, 0)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After+Step allocates %v allocs/op, want 0", allocs)
	}
}

// TestEngineSmokeMillionEvents is the scale gate for the event
// engine, run by `make engine-smoke` under the race detector: a
// million-event schedule/fire churn with a sliding ~100k-pending
// window, followed by a wide 300k-pending drain, all with exact
// fire-order and pending-count accounting asserted.
func TestEngineSmokeMillionEvents(t *testing.T) {
	if os.Getenv("GS3_ENGINE_SMOKE") == "" {
		t.Skip("set GS3_ENGINE_SMOKE=1 to run the million-event engine smoke")
	}
	rng := rand.New(rand.NewSource(10))
	e := NewEngine()
	var fired, scheduled uint64
	lastAt, lastSeq := math.Inf(-1), uint64(0)
	// Every event is scheduled through schedule, so its payload, the
	// Scheduled reading before it went in, is its seq; Now at the fire
	// is its at.
	k := e.Register(func(p int32) {
		at, seq := e.Now(), uint64(p)
		if at < lastAt || (at == lastAt && seq <= lastSeq) {
			t.Fatalf("fire order violated: (%v, %d) after (%v, %d)", at, seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = at, seq
		fired++
	})
	schedule := func(d float64) {
		e.After(d, k, int32(e.Scheduled()))
		scheduled++
	}

	// Phase 1: sliding-window churn. Each round schedules a burst and
	// steps the engine forward, fewer steps than schedules until ~100k
	// events are pending and as many after.
	const window = 100000
	for scheduled < 700000 {
		for b := 0; b < 64; b++ {
			d := float64(rng.Intn(512)) / 16
			if rng.Intn(100) == 0 {
				d = float64(1000 + rng.Intn(2000)) // far future
			}
			schedule(d)
		}
		steps := 40
		if e.Pending() > window {
			steps = 64
		}
		for b := 0; b < steps; b++ {
			e.Step()
		}
		if uint64(e.Pending())+fired != scheduled {
			t.Fatalf("accounting: pending %d + fired %d != scheduled %d", e.Pending(), fired, scheduled)
		}
	}

	// Phase 2: wide drain. Pile 300k more events across a broad time
	// span onto the queue, then drain everything.
	for i := 0; i < 300000; i++ {
		schedule(float64(rng.Intn(1<<20)) / 32)
	}
	e.Run(0)
	if e.Pending() != 0 {
		t.Fatalf("Pending=%d after full drain", e.Pending())
	}
	if fired != scheduled {
		t.Fatalf("final accounting: fired %d != scheduled %d", fired, scheduled)
	}
	if e.Fired() != fired {
		t.Fatalf("engine Fired=%d, callbacks counted %d", e.Fired(), fired)
	}
	t.Logf("smoke: scheduled and fired %d", scheduled)
}
