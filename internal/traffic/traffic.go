// Package traffic is the packet-level data plane of the simulator: it
// routes real packets over the structure GS³ builds, one scheduled
// radio delivery per hop, concurrently with whatever healing is in
// flight on the same event engine.
//
// Two workloads ride on the structure:
//
//   - Convergecast: a node's reading travels associate→head, then
//     head→parent up the head graph to the big node — the paper's
//     data-gathering pattern, now as individual packets rather than the
//     instantaneous aggregation round of internal/gather.
//   - Point-to-point: cell-coordinate geographic routing over the head
//     graph. Each head forwards to the neighbor head whose cell is
//     strictly closer (in hexagonal cell distance) to the destination,
//     with a local detour rule when a gapped or healing structure
//     offers no closer neighbor (see route.go).
//
// Every hop goes through radio.Medium.Unicast, so an installed fault
// injector applies per-packet loss, duplication-era jitter, and
// blackout drops; a failed hop retries a bounded number of times and
// the packet is then counted lost. Because hops are engine events,
// cell shifts, head shifts, and BIG_SLIDE happen *between* packet
// hops: the plane measures exactly how much traffic the structure
// loses while repair is in flight.
//
// # Determinism and thread safety
//
// A Plane is single-threaded like the engine that drives it: one trial
// owns one Plane, and all generation, routing, and reporting happen on
// the engine's goroutine. The open-loop load generator draws arrival
// times, sources, and destinations exclusively from its own forked
// rng.Source, in a fixed per-packet order, so a run with a given
// (seed, Config) replays bit-identically and enabling traffic never
// perturbs the protocol's or the fault layer's own draw sequences.
// Distinct Planes (on distinct networks) share nothing and may run on
// separate goroutines — that is how internal/runner fans out trials.
package traffic

import (
	"fmt"
	"math"
	"slices"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/hexlat"
	"gs3/internal/radio"
	"gs3/internal/rng"
	"gs3/internal/sim"
	"gs3/internal/stats"
)

// Config parameterizes one traffic run. Zero optional fields take the
// documented defaults at New; Packets and Rate are required.
type Config struct {
	// Packets is the total number of packets the open-loop generator
	// emits. Required.
	Packets int
	// Rate is the aggregate arrival rate in packets per virtual second
	// (interarrivals are exponential — an open-loop Poisson source).
	// Required.
	Rate float64
	// P2PFraction is the fraction of packets routed point-to-point via
	// geographic routing; the rest are convergecast to the big node.
	// 0 sends everything convergecast.
	P2PFraction float64
	// TTL bounds the hops a packet may take before it is dropped
	// (detour loops under heavy churn die here). Default 64.
	TTL int
	// HopRetries is the per-hop attempt budget: a packet whose send
	// fails (loss, blackout, missing route) waits half a heartbeat
	// interval — healing has a chance to repair the route — and tries
	// again, up to this many extra attempts. Default 3.
	HopRetries int
	// Drain is how long after the last generated packet the plane keeps
	// the run open for in-flight packets. Default 20 heartbeats;
	// packets still in flight when it expires count lost.
	Drain float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Packets <= 0 {
		return fmt.Errorf("traffic: Packets must be positive, got %d", c.Packets)
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
		return fmt.Errorf("traffic: Rate must be positive and finite, got %v", c.Rate)
	}
	if !(c.P2PFraction >= 0 && c.P2PFraction <= 1) {
		return fmt.Errorf("traffic: P2PFraction must be in [0,1], got %v", c.P2PFraction)
	}
	if c.TTL < 0 || c.HopRetries < 0 || c.Drain < 0 {
		return fmt.Errorf("traffic: negative TTL/HopRetries/Drain")
	}
	if math.IsNaN(c.Drain) || math.IsInf(c.Drain, 1) {
		return fmt.Errorf("traffic: Drain must be finite, got %v", c.Drain)
	}
	return nil
}

// packet is one in-flight datagram. Packets live in the plane's dense
// packets slice, addressed by index, and finish/drop return the index
// to the free list, so steady-state generation reuses a small working
// set instead of allocating per packet.
type packet struct {
	p2p      bool
	dst      radio.NodeID // the big node for convergecast
	born     float64
	hops     int
	attempts int          // failed attempts at the current hop
	holder   radio.NodeID // node currently carrying the packet
	prev     radio.NodeID // previous holder (damps detour ping-pong)
}

// Report is the outcome of one traffic run. All latency figures are in
// virtual seconds from generation to final delivery; head load figures
// count successful transmissions by nodes holding the head role.
type Report struct {
	// Generated is the number of packets the generator emitted.
	Generated uint64
	// Delivered is the number that reached their destination.
	Delivered uint64
	// LostNoRoute counts packets dropped because no next hop existed
	// (uncovered holder, dead destination, severed parent chain) after
	// the retry budget.
	LostNoRoute uint64
	// LostHopFail counts packets dropped after per-hop sends kept
	// failing (injected loss, blackouts, out-of-range links).
	LostHopFail uint64
	// LostTTL counts packets dropped by the hop budget (routing loops
	// under churn).
	LostTTL uint64
	// Expired counts packets still in flight when the drain window
	// closed; they are lost for ratio purposes.
	Expired uint64
	// Detours counts geographic-routing hops that could not strictly
	// decrease cell distance and fell back to the local detour rule
	// (always 0 on a settled gap-free structure).
	Detours uint64
	// Retries counts per-hop re-attempts after a failed send or a
	// missing route.
	Retries uint64
	// Forwards is the total number of successful transmissions by
	// head-role nodes, and HeadsUsed how many distinct heads forwarded.
	Forwards  uint64
	HeadsUsed int
	// MeanHeadForwards and MaxHeadForwards summarize per-head load.
	MeanHeadForwards float64
	MaxHeadForwards  float64
	// HeadEnergy charges one energy unit per forward, so it equals
	// Forwards; MaxHeadEnergy is the largest single head's burn.
	HeadEnergy    float64
	MaxHeadEnergy float64
	// DeliveryRatio is Delivered / Generated (0 when nothing was
	// generated).
	DeliveryRatio float64
	// Latency percentiles and extremes over delivered packets.
	LatencyMean float64
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64
	LatencyMax  float64
	// MeanHops and MaxHops summarize path lengths of delivered packets.
	MeanHops float64
	MaxHops  float64
}

// Lost returns the total packets lost for any reason.
func (r Report) Lost() uint64 {
	return r.LostNoRoute + r.LostHopFail + r.LostTTL + r.Expired
}

// Plane is one traffic run bound to a network. It is single-threaded:
// exactly the goroutine driving the network's engine may call its
// methods, and a Plane must not outlive its network. See the package
// comment for the full determinism contract.
type Plane struct {
	nw  *core.Network
	cfg Config
	src *rng.Source

	lat      hexlat.Lattice // origin re-anchored per routing decision
	maxRange float64
	hb       float64

	rep       Report
	latencies []float64
	hopsSum   uint64
	forwards  []uint64 // successful head-role sends, by node ID

	// packets holds every packet the plane has made; an index into it
	// is the payload of the packet's hop events, and free lists the
	// indices of finished packets for reuse.
	packets []packet
	free    []int32
	hop     sim.Kind // one hop or retry of the packet in the payload
	gen     sim.Kind // the generator's next arrival

	inflight int
	stopped  bool
}

// New builds a plane over nw. src feeds the load generator and must be
// a dedicated source (fork it from the trial's stream); the plane owns
// it afterwards. Defaults are applied here; see Config. The plane
// registers its two event kinds on nw's engine, so the network keeps
// it reachable for as long as the network lives.
func New(nw *core.Network, cfg Config, src *rng.Source) (*Plane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("traffic: nil random source")
	}
	hb := nw.Config().HeartbeatInterval
	if cfg.TTL == 0 {
		cfg.TTL = 64
	}
	if cfg.HopRetries == 0 {
		cfg.HopRetries = 3
	}
	if cfg.Drain == 0 {
		cfg.Drain = 20 * hb
	}
	p := &Plane{
		nw:        nw,
		cfg:       cfg,
		src:       src,
		lat:       hexlat.New(geom.Point{}, nw.Config().HeadSpacing(), nw.Config().GR),
		maxRange:  nw.Medium().Params().MaxRange,
		hb:        hb,
		latencies: make([]float64, 0, cfg.Packets),
		forwards:  make([]uint64, len(nw.SortedIDs())),
	}
	eng := nw.Engine()
	p.hop = eng.Register(func(i int32) { p.step(i) })
	p.gen = eng.Register(func(int32) { p.genFire() })
	return p, nil
}

// Start schedules the first packet arrival on the engine. The caller
// then drives the engine itself; Run wraps Start plus the standard
// drive-and-drain loop.
func (p *Plane) Start() {
	p.scheduleArrival()
}

// GenerationDone reports whether the generator has emitted its full
// packet budget.
func (p *Plane) GenerationDone() bool {
	return p.rep.Generated >= uint64(p.cfg.Packets)
}

// Run drives the engine until every packet is generated, then keeps it
// running through the drain window until the last packet lands or the
// window closes, and returns the final report. Maintenance sweeps
// scheduled on the same engine execute interleaved with packet hops —
// healing under load is the default, not a special mode.
func (p *Plane) Run() Report {
	p.Start()
	eng := p.nw.Engine()
	for !p.GenerationDone() {
		eng.RunUntil(eng.Now() + p.hb)
	}
	deadline := eng.Now() + p.cfg.Drain
	for p.inflight > 0 && eng.Now() < deadline {
		eng.RunUntil(eng.Now() + p.hb)
	}
	p.stopped = true // expired packets' queued events become no-ops
	p.rep.Expired = uint64(p.inflight)
	p.inflight = 0
	return p.Report()
}

// Report finalizes and returns the run's metrics. It may be called
// repeatedly; each call recomputes the derived figures from the
// counters accumulated so far.
func (p *Plane) Report() Report {
	r := p.rep
	if r.Generated > 0 {
		r.DeliveryRatio = float64(r.Delivered) / float64(r.Generated)
	}
	if r.Delivered > 0 {
		r.MeanHops = float64(p.hopsSum) / float64(r.Delivered)
	}
	if len(p.latencies) > 0 {
		sorted := slices.Clone(p.latencies)
		slices.Sort(sorted)
		var sum float64
		for _, l := range sorted {
			sum += l
		}
		r.LatencyMean = sum / float64(len(sorted))
		r.LatencyP50 = stats.Percentile(sorted, 50)
		r.LatencyP99 = stats.Percentile(sorted, 99)
		r.LatencyP999 = stats.Percentile(sorted, 99.9)
		r.LatencyMax = sorted[len(sorted)-1]
	}
	var maxFwd uint64
	for _, f := range p.forwards {
		if f > 0 {
			r.HeadsUsed++
		}
		maxFwd = max(maxFwd, f)
	}
	r.MaxHeadForwards = float64(maxFwd)
	if r.HeadsUsed > 0 {
		r.MeanHeadForwards = float64(r.Forwards) / float64(r.HeadsUsed)
	}
	r.HeadEnergy = float64(r.Forwards)
	r.MaxHeadEnergy = float64(maxFwd)
	return r
}

// scheduleArrival queues the next generator fire after an exponential
// interarrival gap.
func (p *Plane) scheduleArrival() {
	if p.GenerationDone() {
		return
	}
	p.nw.Engine().After(p.src.Exp(1/p.cfg.Rate), p.gen, 0)
}

// genFire emits one packet and reschedules itself.
func (p *Plane) genFire() {
	if p.stopped || p.GenerationDone() {
		return
	}
	p.emit()
	p.scheduleArrival()
}

// emit draws one packet from the generator stream and launches it. The
// draw order per packet is fixed: kind (only when P2PFraction > 0),
// then source, then (p2p only) destination — the determinism contract
// replay tests rely on.
func (p *Plane) emit() {
	p.rep.Generated++
	p2p := p.cfg.P2PFraction > 0 && p.src.Float64() < p.cfg.P2PFraction
	src := p.pickNode(radio.None)
	if src == radio.None {
		p.rep.LostNoRoute++
		return
	}
	dst := p.nw.BigID()
	if p2p {
		dst = p.pickNode(src)
		if dst == radio.None {
			p.rep.LostNoRoute++
			return
		}
	}
	i := p.newPacket()
	p.packets[i] = packet{
		p2p:    p2p,
		dst:    dst,
		holder: src, prev: radio.None,
		born: p.nw.Engine().Now(),
	}
	p.inflight++
	p.step(i)
}

// pickNode draws a uniformly random alive small node other than
// exclude, or radio.None if the bounded rejection sampling finds none.
func (p *Plane) pickNode(exclude radio.NodeID) radio.NodeID {
	ids := p.nw.SortedIDs()
	if len(ids) == 0 {
		return radio.None
	}
	for tries := 0; tries < 64; tries++ {
		id := ids[p.src.Intn(len(ids))]
		if id != exclude && id != p.nw.BigID() && p.nw.Alive(id) {
			return id
		}
	}
	return radio.None
}

// newPacket returns the index of a free packet slot, appending one when
// none is free.
func (p *Plane) newPacket() int32 {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i
	}
	p.packets = append(p.packets, packet{})
	return int32(len(p.packets) - 1)
}

// step advances packet i by one hop: delivered check, route lookup, and
// one radio send. It runs as an engine event at each hop arrival (and
// at each retry), so healing actions interleave between hops.
func (p *Plane) step(i int32) {
	if p.stopped {
		return
	}
	pkt := &p.packets[i]
	if p.arrived(pkt) {
		p.deliver(i)
		return
	}
	if pkt.p2p && !p.nw.Alive(pkt.dst) {
		p.drop(i, &p.rep.LostNoRoute)
		return
	}
	if pkt.hops >= p.cfg.TTL {
		p.drop(i, &p.rep.LostTTL)
		return
	}
	if !p.nw.Alive(pkt.holder) {
		// The node carrying the packet died: the packet died with it.
		p.drop(i, &p.rep.LostHopFail)
		return
	}
	next, ok := p.nextHop(pkt)
	if !ok {
		p.stall(i, &p.rep.LostNoRoute)
		return
	}
	delay, err := p.nw.Medium().Unicast(pkt.holder, next, p.maxRange)
	if err != nil {
		p.stall(i, &p.rep.LostHopFail)
		return
	}
	if n := p.nw.Node(pkt.holder); n != nil && n.Status.IsHeadRole() {
		p.countForward(pkt.holder)
	}
	pkt.prev = pkt.holder
	pkt.holder = next
	pkt.hops++
	pkt.attempts = 0
	p.nw.Engine().After(delay, p.hop, i)
}

// countForward credits one successful send to head id, growing the
// per-node counters for nodes that joined after New.
func (p *Plane) countForward(id radio.NodeID) {
	if n := int(id) + 1; n > len(p.forwards) {
		p.forwards = slices.Grow(p.forwards, n-len(p.forwards))[:n]
	}
	p.forwards[id]++
	p.rep.Forwards++
}

// arrived reports whether pkt sits at its destination. Convergecast
// packets arrive at the big node, or at the root head standing in for
// it during a big-node slide or move (core.Network.RootHead).
func (p *Plane) arrived(pkt *packet) bool {
	if pkt.p2p {
		return pkt.holder == pkt.dst
	}
	return pkt.holder == p.nw.BigID() || pkt.holder == p.nw.RootHead()
}

// stall retries packet i's current hop after half a heartbeat
// interval, or drops the packet into lost once the attempt budget is
// spent.
func (p *Plane) stall(i int32, lost *uint64) {
	pkt := &p.packets[i]
	pkt.attempts++
	if pkt.attempts > p.cfg.HopRetries {
		p.drop(i, lost)
		return
	}
	p.rep.Retries++
	p.nw.Engine().After(p.hb/2, p.hop, i)
}

// deliver finalizes delivered packet i.
func (p *Plane) deliver(i int32) {
	pkt := &p.packets[i]
	p.rep.Delivered++
	p.latencies = append(p.latencies, p.nw.Engine().Now()-pkt.born)
	p.hopsSum += uint64(pkt.hops)
	if h := float64(pkt.hops); h > p.rep.MaxHops {
		p.rep.MaxHops = h
	}
	p.release(i)
}

// drop finalizes lost packet i against the given loss counter.
func (p *Plane) drop(i int32, lost *uint64) {
	*lost++
	p.release(i)
}

// release returns finished packet i's slot to the free list.
func (p *Plane) release(i int32) {
	p.inflight--
	p.free = append(p.free, i)
}
