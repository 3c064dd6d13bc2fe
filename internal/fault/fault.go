// Package fault is the deterministic fault-injection layer of the
// simulator: it models an unreliable radio (per-delivery message loss,
// duplication, and delay jitter) and transient node blackouts
// (crash/restart), all drawn from a dedicated rng.Source so that a run
// with a given (seed, Plan) replays bit-identically.
//
// # Determinism contract
//
// An Injector consumes randomness only through its own Source, never
// through the Sources that drive deployment or the protocol, so
// enabling faults cannot perturb where nodes land or which node a
// fault-free draw would have picked. Draws happen in the order the
// simulation asks the questions — per-receiver in ascending ID order
// inside a broadcast, per-node in engine event order for blackouts —
// which is itself deterministic, so identical (seed, Plan) pairs yield
// identical fault sequences on any goroutine schedule.
//
// A zero Plan consumes no randomness at all, and a nil *Injector
// answers every query with "no fault": the zero-fault configuration is
// byte-identical to a build without the fault layer.
package fault

import (
	"fmt"
	"math"

	"gs3/internal/rng"
)

// Plan configures which faults an Injector produces. The zero value
// injects nothing. Plan is plain data: copy it freely.
type Plan struct {
	// Loss is the per-delivery drop probability applied independently
	// to every receiver of a broadcast and to every unicast.
	Loss float64
	// Dup is the per-delivery duplication probability: a surviving
	// delivery is handed to the receiver twice, exercising the
	// idempotence of the protocol actions.
	Dup float64
	// Jitter inflates every transmission delay by an independent
	// uniform factor in [1, 1+Jitter]; 0.3 means up to 30% extra
	// latency on each message and each scheduled protocol round.
	Jitter float64
	// BlackoutRate is the per-node, per-sweep probability that a small
	// node crashes transiently: it stops sweeping and hears nothing
	// until it restarts. The big node never blacks out.
	BlackoutRate float64
	// BlackoutSweeps is the mean blackout duration in heartbeat sweeps
	// (the actual duration of each episode is an exponential draw with
	// this mean, floored at one sweep). Zero with a positive
	// BlackoutRate is invalid.
	BlackoutSweeps float64
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.Loss > 0 || p.Dup > 0 || p.Jitter > 0 || p.BlackoutRate > 0
}

// Validate reports configuration errors. Every field must be finite:
// Jitter and BlackoutSweeps scale scheduled delays, and the event
// engine rejects a NaN or infinite fire time.
func (p Plan) Validate() error {
	if !(p.Loss >= 0 && p.Loss < 1) {
		return fmt.Errorf("fault: Loss must be in [0,1), got %v", p.Loss)
	}
	if !(p.Dup >= 0 && p.Dup < 1) {
		return fmt.Errorf("fault: Dup must be in [0,1), got %v", p.Dup)
	}
	if !(p.Jitter >= 0) || math.IsInf(p.Jitter, 1) {
		return fmt.Errorf("fault: Jitter must be non-negative and finite, got %v", p.Jitter)
	}
	if !(p.BlackoutRate >= 0 && p.BlackoutRate < 1) {
		return fmt.Errorf("fault: BlackoutRate must be in [0,1), got %v", p.BlackoutRate)
	}
	if p.BlackoutRate > 0 && (!(p.BlackoutSweeps > 0) || math.IsInf(p.BlackoutSweeps, 1)) {
		return fmt.Errorf("fault: BlackoutRate %v needs a positive, finite BlackoutSweeps, got %v", p.BlackoutRate, p.BlackoutSweeps)
	}
	return nil
}

// Injector answers the simulation's fault questions from a Plan and a
// private random source. All methods are nil-receiver safe and answer
// "no fault" on a nil Injector, so call sites need no guards.
//
// An Injector is single-threaded like the engine that drives it: one
// trial owns one Injector, and distinct trials' Injectors share
// nothing.
type Injector struct {
	plan Plan
	src  *rng.Source
}

// NewInjector builds an injector for the plan. src must be non-nil when
// the plan is active; the injector owns it exclusively afterwards.
func NewInjector(p Plan, src *rng.Source) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Active() && src == nil {
		return nil, fmt.Errorf("fault: active plan requires a random source")
	}
	return &Injector{plan: p, src: src}, nil
}

// Active reports whether the injector produces any faults.
func (in *Injector) Active() bool {
	return in != nil && in.plan.Active()
}

// DropDelivery draws whether one delivery is lost. It consumes a draw
// only when Loss is positive.
func (in *Injector) DropDelivery() bool {
	if in == nil || in.plan.Loss <= 0 {
		return false
	}
	return in.src.Float64() < in.plan.Loss
}

// DupDelivery draws whether one surviving delivery is duplicated. It
// consumes a draw only when Dup is positive.
func (in *Injector) DupDelivery() bool {
	if in == nil || in.plan.Dup <= 0 {
		return false
	}
	return in.src.Float64() < in.plan.Dup
}

// JitterDelay returns d inflated by the plan's jitter: an independent
// uniform factor in [1, 1+Jitter]. It consumes a draw only when Jitter
// is positive.
func (in *Injector) JitterDelay(d float64) float64 {
	if in == nil || in.plan.Jitter <= 0 {
		return d
	}
	return d * (1 + in.plan.Jitter*in.src.Float64())
}

// BlackoutStart draws whether a node entering its sweep crashes now: it
// returns for how many sweeps (exponential with mean BlackoutSweeps,
// floored at 1), or 0 when the node stays up. It consumes draws only
// when BlackoutRate is positive, and it is small enough to inline, so a
// sweep with blackouts off makes no call to learn that.
func (in *Injector) BlackoutStart() float64 {
	if in == nil || in.plan.BlackoutRate <= 0 {
		return 0
	}
	return in.blackoutDraw()
}

// blackoutDraw is BlackoutStart's draw with blackouts on.
func (in *Injector) blackoutDraw() float64 {
	if in.src.Float64() >= in.plan.BlackoutRate {
		return 0
	}
	return max(in.src.Exp(in.plan.BlackoutSweeps), 1)
}
