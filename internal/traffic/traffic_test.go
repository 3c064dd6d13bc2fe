package traffic_test

import (
	"math"
	"testing"

	"gs3/internal/check"
	"gs3/internal/core"
	"gs3/internal/netsim"
	"gs3/internal/traffic"
)

// settled builds, configures, and stabilizes a zero-fault grid network
// with maintenance running, ready to carry traffic.
func settled(t *testing.T, r, region float64, seed uint64) *netsim.Sim {
	t.Helper()
	opt := netsim.DefaultOptions(r, region)
	opt.Seed = seed
	s, err := netsim.Build(opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatalf("configure: %v", err)
	}
	s.Net.StartMaintenance(core.VariantD)
	if _, err := s.RunUntilStable(60); err != nil {
		t.Fatalf("stabilize: %v", err)
	}
	// StableQuick only checks coverage; give the sweeps time to finish
	// filling neighbor-head tables, which geographic routing reads.
	s.RunSweeps(10)
	if res := check.Fixpoint(s.Net.Snapshot(), check.Dynamic); !res.OK() {
		t.Fatalf("not at fixpoint before traffic: %v", res)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	cases := []traffic.Config{
		{Packets: 0, Rate: 1},
		{Packets: 10, Rate: 0},
		{Packets: 10, Rate: 1, P2PFraction: 1.5},
		{Packets: 10, Rate: 1, TTL: -1},
		// Non-finite values: a NaN rate used to pass and poison the
		// engine's clock with NaN arrival times.
		{Packets: 10, Rate: math.NaN()},
		{Packets: 10, Rate: math.Inf(1)},
		{Packets: 10, Rate: 1, P2PFraction: math.NaN()},
		{Packets: 10, Rate: 1, Drain: math.NaN()},
		{Packets: 10, Rate: 1, Drain: math.Inf(1)},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, c)
		}
	}
	if err := (traffic.Config{Packets: 10, Rate: 1, P2PFraction: 0.5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConvergecastDeliversAll(t *testing.T) {
	s := settled(t, 10, 60, 1)
	plane, err := s.ServeTraffic(traffic.Config{Packets: 500, Rate: 200})
	if err != nil {
		t.Fatalf("ServeTraffic: %v", err)
	}
	rep := plane.Run()
	if rep.Generated != 500 {
		t.Fatalf("generated %d packets, want 500", rep.Generated)
	}
	if rep.Delivered != rep.Generated {
		t.Fatalf("zero-fault convergecast: delivered %d of %d (lost: noroute=%d hopfail=%d ttl=%d expired=%d)",
			rep.Delivered, rep.Generated, rep.LostNoRoute, rep.LostHopFail, rep.LostTTL, rep.Expired)
	}
	if rep.DeliveryRatio != 1.0 {
		t.Fatalf("delivery ratio %v, want exactly 1.0", rep.DeliveryRatio)
	}
	if rep.LatencyP50 <= 0 || rep.LatencyP99 < rep.LatencyP50 || rep.LatencyP999 < rep.LatencyP99 {
		t.Fatalf("latency percentiles not ordered: p50=%v p99=%v p999=%v",
			rep.LatencyP50, rep.LatencyP99, rep.LatencyP999)
	}
	if rep.Forwards == 0 || rep.HeadsUsed == 0 {
		t.Fatalf("no head forwards recorded: %+v", rep)
	}
	if rep.HeadEnergy != float64(rep.Forwards) {
		t.Fatalf("HeadEnergy %v != Forwards %d at one unit per forward", rep.HeadEnergy, rep.Forwards)
	}
}

func TestTrafficDeterministicReplay(t *testing.T) {
	run := func() traffic.Report {
		s := settled(t, 10, 60, 7)
		plane, err := s.ServeTraffic(traffic.Config{Packets: 300, Rate: 150, P2PFraction: 0.4})
		if err != nil {
			t.Fatalf("ServeTraffic: %v", err)
		}
		return plane.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different reports:\n  a=%+v\n  b=%+v", a, b)
	}
}

func TestTrafficUnderLoss(t *testing.T) {
	opt := netsim.DefaultOptions(10, 60)
	opt.Seed = 3
	opt.Faults.Loss = 0.3
	s, err := netsim.Build(opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := s.Configure(); err != nil {
		t.Fatalf("configure: %v", err)
	}
	s.Net.StartMaintenance(core.VariantD)
	s.RunSweeps(20)
	plane, err := s.ServeTraffic(traffic.Config{Packets: 400, Rate: 200, P2PFraction: 0.3})
	if err != nil {
		t.Fatalf("ServeTraffic: %v", err)
	}
	rep := plane.Run()
	if rep.Generated != 400 {
		t.Fatalf("generated %d, want 400", rep.Generated)
	}
	if rep.Delivered+rep.Lost() != rep.Generated {
		t.Fatalf("accounting leak: delivered %d + lost %d != generated %d",
			rep.Delivered, rep.Lost(), rep.Generated)
	}
	if rep.Retries == 0 {
		t.Fatalf("30%% loss produced zero hop retries: %+v", rep)
	}
	if rep.DeliveryRatio <= 0.5 {
		t.Fatalf("delivery ratio %v under 30%% per-hop loss with retries; expected most packets through", rep.DeliveryRatio)
	}
}

func TestTrafficWithChurnCompletes(t *testing.T) {
	s := settled(t, 10, 50, 5)
	s.StartChurn(2*s.Opt.Config.HeartbeatInterval, 10)
	plane, err := s.ServeTraffic(traffic.Config{Packets: 300, Rate: 100, P2PFraction: 0.3})
	if err != nil {
		t.Fatalf("ServeTraffic: %v", err)
	}
	rep := plane.Run()
	if rep.Generated != 300 {
		t.Fatalf("generated %d, want 300", rep.Generated)
	}
	if rep.Delivered+rep.Lost() != rep.Generated {
		t.Fatalf("accounting leak under churn: %+v", rep)
	}
	if rep.DeliveryRatio < 0.8 {
		t.Fatalf("mild churn collapsed delivery to %v", rep.DeliveryRatio)
	}
}
