// Routing rules for the data plane: the convergecast parent-chain walk
// and cell-coordinate geographic greedy forwarding with a local detour.
package traffic

import (
	"gs3/internal/core"
	"gs3/internal/radio"
)

// nextHop picks the next node for pkt from its current holder, using
// only state the holder legitimately knows: its own head/parent links
// and its neighbor-head table. It returns (next, true), or (None,
// false) when no usable hop exists right now — the caller then retries
// after half a heartbeat, giving in-flight healing a chance to restore
// the route.
func (p *Plane) nextHop(pkt *packet) (radio.NodeID, bool) {
	n := p.nw.Node(pkt.holder)
	if n == nil {
		return radio.None, false
	}
	if !pkt.p2p {
		return p.convergeHop(pkt, n)
	}
	return p.geoHop(pkt, n)
}

// convergeHop walks the aggregation tree: associates hand their
// reading to their head; heads forward up the parent chain toward the
// big node. A missing or dead link stalls the packet rather than
// guessing — GS³-D/M repair is expected to refill it.
func (p *Plane) convergeHop(pkt *packet, n *core.Node) (radio.NodeID, bool) {
	if !n.Status.IsHeadRole() {
		if h := n.Head; h != radio.None && h != pkt.holder && p.nw.Alive(h) {
			return h, true
		}
		return radio.None, false
	}
	parent := n.Parent
	if parent == radio.None || parent == pkt.holder || !p.nw.Alive(parent) {
		return radio.None, false
	}
	return parent, true
}

// geoHop implements cell-coordinate greedy forwarding. An associate
// first climbs to its own head. A head computes the hexagonal cell
// distance from each candidate's cell center to the destination —
// measured on a lattice anchored at the holder's own IL, so the
// holder's cell is exactly a lattice point — and forwards to the
// neighbor head that strictly decreases it, tie-broken by Euclidean
// distance then ID for determinism. When the destination's own head is
// a neighbor (or the holder), the packet drops straight to the
// destination node.
//
// If no neighbor is strictly closer (a gapped or mid-heal structure),
// the detour rule forwards to the best neighbor anyway, excluding the
// hop we just came from to damp two-cell ping-pong; the TTL bounds any
// remaining loop. Detour hops are counted in Report.Detours, which is
// exactly the count of greedy violations — the property tests assert
// it stays 0 on settled gap-free structures.
func (p *Plane) geoHop(pkt *packet, n *core.Node) (radio.NodeID, bool) {
	if !n.Status.IsHeadRole() {
		if h := n.Head; h != radio.None && h != pkt.holder && p.nw.Alive(h) {
			return h, true
		}
		return radio.None, false
	}
	// Last-mile: the destination associates with this head.
	dn := p.nw.Node(pkt.dst)
	if dn != nil && dn.Head == pkt.holder {
		return pkt.dst, true
	}
	// Route toward the cell that covers the destination — its head's
	// IL — not the destination's geometric cell: edge nodes often
	// associate across a cell border, and the covering cell is the one
	// guaranteed to hold a head. Fall back to the destination's own
	// position when its head link is dead or stale mid-heal.
	target := p.nw.Position(pkt.dst)
	if dn != nil && dn.Head != radio.None && p.nw.Alive(dn.Head) {
		if hn := p.nw.Node(dn.Head); hn != nil && hn.Status.IsHeadRole() {
			target = hn.IL
		}
	}
	// Cell distances are measured on one lattice anchored at the
	// holder's IL, so the target is rounded once and every candidate
	// against it: the holder's cell is exactly a lattice point, and all
	// candidates of one decision share a single consistent rounding.
	p.lat.Origin = n.IL
	tc := p.lat.Nearest(target)
	here := tc.Ring()
	if here == 0 {
		// Holder's cell is the target cell but the destination is not
		// (or no longer) its associate: hand it straight over.
		return pkt.dst, true
	}

	best := radio.None
	bestDist := -1
	var bestEuclid float64
	detour := radio.None
	detourDist := -1
	var detourEuclid float64
	for _, nb := range n.Neighbors {
		if nb == pkt.holder || !p.nw.Alive(nb) {
			continue
		}
		nn := p.nw.Node(nb)
		if nn == nil || !nn.Status.IsHeadRole() {
			continue
		}
		d := tc.Add(p.lat.Nearest(nn.IL).Scale(-1)).Ring()
		e := nn.IL.Dist(target)
		if d < here {
			if best == radio.None || d < bestDist || (d == bestDist && (e < bestEuclid || (e == bestEuclid && nb < best))) {
				best, bestDist, bestEuclid = nb, d, e
			}
		} else if nb != pkt.prev {
			if detour == radio.None || d < detourDist || (d == detourDist && (e < detourEuclid || (e == detourEuclid && nb < detour))) {
				detour, detourDist, detourEuclid = nb, d, e
			}
		}
	}
	if best != radio.None {
		return best, true
	}
	if detour != radio.None {
		p.rep.Detours++
		return detour, true
	}
	return radio.None, false
}
