package core

import (
	"slices"
	"testing"

	"gs3/internal/geom"
	"gs3/internal/radio"
)

// relationalVictim picks a small head whose corruption will be purely
// relational: it sits close enough to its IL that a displacement of
// delta keeps the position within Rt (not self-evident), and no other
// head names it as parent, so displacing its IL leaves every neighbor's
// own validity intact and the attestation quorum can form.
func relationalVictim(t *testing.T, nw *Network, delta float64) NodeView {
	t.Helper()
	snap := nw.Snapshot()
	heads := snap.Heads()
outer:
	for _, h := range heads {
		if h.IsBig || h.Parent == radio.None || h.Parent == h.ID {
			continue
		}
		if h.Pos.Dist(h.IL)+delta >= nw.Config().Rt {
			continue // displacement would be self-evident
		}
		for _, o := range heads {
			if o.ID != h.ID && o.Parent == h.ID {
				continue outer // a child's validity would break too
			}
		}
		return h
	}
	t.Fatal("no childless head close to its IL")
	return NodeView{}
}

// A relationally corrupted head — IL off the parent lattice but still
// within Rt of its own position — must retreat exactly when every
// neighbor attests a valid state (the sanity_check_req quorum).
func TestSanityRetreatOnAttestationQuorum(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)
	victim := relationalVictim(t, nw, cfg.Rt/3)

	nw.Corrupt(victim.ID, CorruptIL, cfg.Rt/3)
	v := nw.Node(victim.ID)
	if nw.headSelfEvidentCorrupt(v) {
		t.Fatal("corruption is self-evident; test wants the attestation path")
	}
	if nw.headRelationalValid(v) {
		t.Fatal("corruption did not break the parent relation")
	}

	before := nw.Metrics().SanityRetreats
	if nw.SanityCheck(victim.ID) {
		t.Fatal("corrupted head passed its sanity check")
	}
	if nw.Metrics().SanityRetreats != before+1 {
		t.Errorf("retreats %d -> %d, want exactly one: all neighbors attested valid",
			before, nw.Metrics().SanityRetreats)
	}
	if nw.Node(victim.ID).Status.IsHeadRole() {
		t.Error("victim still holds the head role after retreating")
	}
}

// A correct head whose PARENT is corrupted sees the same relational
// violation but must NOT retreat: the attestation round finds the
// corrupt neighbor, the quorum fails, and the head waits for the next
// period (the corrupt node retreats on its own check instead).
func TestCorrectHeadHoldsUnderCorruptedNeighbor(t *testing.T) {
	nw, cfg := configureDynamic(t, 400)

	// Find a small head whose parent is also a small head.
	var child NodeView
	found := false
	for _, h := range nw.Snapshot().Heads() {
		if h.IsBig || h.Parent == radio.None || h.Parent == h.ID {
			continue
		}
		if p := nw.Node(h.Parent); p != nil && !p.IsBig && p.Status.IsHeadRole() {
			child, found = h, true
			break
		}
	}
	if !found {
		t.Fatal("no small head with a small parent")
	}

	// Self-evident corruption at the parent: its IL jumps 3Rt away from
	// its position, so the child's relational check fails while the
	// parent fails its own attestation.
	nw.Corrupt(child.Parent, CorruptIL, 3*cfg.Rt)
	if nw.headRelationalValid(nw.Node(child.ID)) {
		t.Fatal("parent corruption did not reach the child's relation")
	}

	before := nw.Metrics().SanityRetreats
	if nw.SanityCheck(child.ID) {
		t.Fatal("child reported valid state despite the broken relation")
	}
	if nw.Metrics().SanityRetreats != before {
		t.Error("correct head retreated although a neighbor could not attest")
	}
	if !nw.Node(child.ID).Status.IsHeadRole() {
		t.Error("correct head lost the head role")
	}

	// The corrupted parent, by contrast, decides alone and retreats.
	if nw.SanityCheck(child.Parent) {
		t.Error("self-evidently corrupt parent passed its sanity check")
	}
	if nw.Metrics().SanityRetreats != before+1 {
		t.Error("corrupt parent did not retreat on its own check")
	}
}

// A head whose own IL is displaced between Rt and 2·Rt is self-evidently
// corrupt and must retreat at once, even when a neighbor could not
// attest: here its small parent P, a neighbor, is corrupt too (IL off by
// 3·Rt), so the attestation path would wait on P instead of retreating.
// This pins the self-evident threshold at Rt: the corruption tests above
// displace ILs by Rt/3 or 3·Rt, both on the same side of Rt and 2·Rt.
func TestSelfEvidentRetreatDespiteCorruptNeighbor(t *testing.T) {
	nw, cfg := configureDynamic(t, 600)
	var a, p NodeView
	found := false
	for _, h := range nw.Snapshot().Heads() {
		if h.IsBig || h.Parent == radio.None || h.Parent == h.ID {
			continue
		}
		pn := nw.Node(h.Parent)
		if pn == nil || pn.IsBig || !pn.Status.IsHeadRole() || !slices.Contains(h.Neighbors, h.Parent) {
			continue
		}
		// Where Corrupt will move A's IL: keep A only if its position
		// then lies between Rt and 2·Rt from the IL.
		il := h.IL.Add(geom.UnitAt(float64(h.ID)).Scale(1.5 * cfg.Rt))
		if d := h.Pos.Dist(il); d > cfg.Rt && d <= 2*cfg.Rt {
			a, found = h, true
			p, _ = nw.Snapshot().View(h.Parent)
			break
		}
	}
	if !found {
		t.Fatal("no non-big head with a small parent among its neighbors")
	}

	nw.Corrupt(p.ID, CorruptIL, 3*cfg.Rt)
	nw.Corrupt(a.ID, CorruptIL, 1.5*cfg.Rt)
	if nw.headStateValid(nw.Node(p.ID)) {
		t.Fatal("parent's corruption left it attestable")
	}
	before := nw.Metrics().SanityRetreats
	if nw.SanityCheck(a.ID) {
		t.Fatal("head with its IL displaced beyond Rt passed its sanity check")
	}
	if got := nw.Metrics().SanityRetreats - before; got != 1 {
		t.Errorf("retreats rose by %d, want 1: the displacement is self-evident", got)
	}
}
