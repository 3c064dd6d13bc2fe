// Package core implements the GS³ protocol itself: the node state
// machine and the network-level actions of GS³-S (self-configuration in
// static networks), GS³-D (self-healing in dynamic networks), and GS³-M
// (mobile dynamic networks).
//
// The implementation follows the paper's granularity: each algorithm
// module (HEAD_ORG, HEAD_SELECT, intra-/inter-cell maintenance, sanity
// checking, …) executes as one atomic action on the simulated network,
// and actions are charged virtual-time costs derived from the radio
// model, so the convergence-time theorems can be checked directly.
package core

import (
	"fmt"
	"math"
)

// SanityCheckEvery is how many sweeps pass between SANITY_CHECK
// executions at a head (the paper runs it "with low frequency").
const SanityCheckEvery = 7

// A head re-issues its organization broadcast after a timeout finds
// its neighborhood still incomplete — the liveness repair for HEAD_ORG
// replies lost by an unreliable radio — at most orgRetries times. The
// first wait is retryBackoff HEAD_ORG round latencies, and it doubles
// after every retry. Retry timers are armed only when a fault injector
// is active: a reliable radio never drops a reply, so re-issuing could
// only repeat work the proofs already cover.
const (
	orgRetries   = 4
	retryBackoff = 2
)

// Config holds the protocol parameters.
type Config struct {
	// R is the ideal cell radius (problem statement requirement a).
	R float64
	// Rt is the radius tolerance: with high probability every disk of
	// radius Rt contains a node. The paper's default is R/4.
	Rt float64
	// GR is the global reference direction (radians) diffused with the
	// computation. Any value works; it must only be consistent.
	GR float64

	// HeartbeatInterval is the period of the intra-/inter-cell
	// maintenance sweeps.
	HeartbeatInterval float64
	// BoundaryRescanEvery is how many sweeps pass between a boundary
	// head's HEAD_ORG re-scans for newly appeared nodes.
	BoundaryRescanEvery int

	// InitialEnergy is each small node's energy budget; 0 disables the
	// energy model. The big node never runs out.
	InitialEnergy float64
	// AssociateDissipation is energy consumed per unit time by an
	// associate; heads consume HeadEnergyFactor times as much. These
	// drive the cell-shift "slide" behaviour of §4.1.
	AssociateDissipation float64
	HeadEnergyFactor     float64

	// BroadcastCost and UnicastCost are the per-transmission energy
	// drains: each actual send during maintenance subtracts the matching
	// cost from the sender's battery, on top of the per-sweep duty
	// dissipation above. Both default to 0 (duty-only model); they take
	// effect only when InitialEnergy > 0. A node whose battery a send
	// empties dies — after the in-flight action completes, never inside
	// it.
	BroadcastCost float64
	UnicastCost   float64
}

// DefaultConfig returns the parameters used throughout the paper's
// examples: Rt = R/4 (the default named in the proof of I₂.₃).
func DefaultConfig(r float64) Config {
	return Config{
		R:                    r,
		Rt:                   r / 4,
		GR:                   0,
		HeartbeatInterval:    1,
		BoundaryRescanEvery:  5,
		InitialEnergy:        0,
		AssociateDissipation: 1,
		HeadEnergyFactor:     5,
	}
}

// Validate reports parameter errors.
func (c Config) Validate() error {
	// R, Rt and HeartbeatInterval scale every scheduled delay, and the
	// event engine rejects a NaN or infinite fire time.
	if !(c.R > 0) || math.IsInf(c.R, 1) {
		return fmt.Errorf("core: R must be positive and finite, got %v", c.R)
	}
	if !(c.Rt > 0 && c.Rt <= c.R) {
		return fmt.Errorf("core: Rt must be in (0, R], got %v", c.Rt)
	}
	if !(c.HeartbeatInterval > 0) || math.IsInf(c.HeartbeatInterval, 1) {
		return fmt.Errorf("core: HeartbeatInterval must be positive and finite, got %v", c.HeartbeatInterval)
	}
	if c.BoundaryRescanEvery <= 0 {
		return fmt.Errorf("core: BoundaryRescanEvery must be positive, got %d", c.BoundaryRescanEvery)
	}
	// GR rotates every ideal location: a NaN or infinite angle puts
	// every IL at NaN, and the configuration covers almost nothing.
	if math.IsNaN(c.GR) || math.IsInf(c.GR, 0) {
		return fmt.Errorf("core: GR must be finite, got %v", c.GR)
	}
	for _, e := range [...]float64{c.InitialEnergy, c.AssociateDissipation, c.HeadEnergyFactor, c.BroadcastCost, c.UnicastCost} {
		if !(e >= 0) || math.IsInf(e, 1) {
			return fmt.Errorf("core: energy parameters must be non-negative and finite, got %v", e)
		}
	}
	return nil
}

// HeadSpacing returns √3·R, the ideal distance between neighboring cell
// heads.
func (c Config) HeadSpacing() float64 {
	return math.Sqrt(3) * c.R
}

// SearchRadius returns √3·R + 2·Rt, the radius of a head's search
// region and the range of all local coordination in GS³.
func (c Config) SearchRadius() float64 {
	return c.HeadSpacing() + 2*c.Rt
}

// Alpha returns the angular slack a = asin(Rt/(√3·R)) that widens a
// head's search sector so boundary nodes are not missed (paper §3.2).
func (c Config) Alpha() float64 {
	return math.Asin(c.Rt / c.HeadSpacing())
}

// NeighborDistMin and NeighborDistMax bound the distance between
// neighboring heads with equal ⟨ICC, ICP⟩ (invariant I₂.₁/Corollary 1).
func (c Config) NeighborDistMin() float64 { return c.HeadSpacing() - 2*c.Rt }

// NeighborDistMax is the upper bound of Corollary 1.
func (c Config) NeighborDistMax() float64 { return c.HeadSpacing() + 2*c.Rt }

// CellRadiusBound returns R + 2·Rt/√3, the maximum associate-to-head
// distance of invariant I₂.₄ for inner cells.
func (c Config) CellRadiusBound() float64 {
	return c.R + 2*c.Rt/math.Sqrt(3)
}
