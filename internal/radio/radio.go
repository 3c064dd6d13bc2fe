// Package radio models the wireless substrate GS³ runs on.
//
// The paper's system model (§2.1) grants nodes three capabilities, all
// of which this package provides:
//
//   - adjustable transmission range;
//   - relative-location detection (range-bounded neighborhood queries);
//   - reliable destination-aware transmission, with destination-unaware
//     broadcast allowed to be unreliable. The medium itself is reliable;
//     an installed fault injector (SetFaults, internal/fault) makes it
//     lossy, dropping each delivery — broadcast or unicast — with the
//     plan's per-delivery loss.
//
// The medium also keeps the accounting the experiments need: message
// counts per kind, deliveries, range queries and fault losses (Stats).
//
// Propagation delay is distance/DiffusionSpeed plus a fixed per-message
// overhead; convergence times in the paper are stated in units of
// one-way message diffusion time, which this realizes directly.
//
// # Storage layout
//
// Node IDs are dense small integers (the network allocates them
// sequentially from 0), so per-node medium state — position, presence,
// blackout, head-role flag — lives in plain ID-indexed slices rather
// than maps. The spatial index is a grid of square cells, numbered by a
// spatial.Table, and one record per cell: its on-medium nodes, its
// head-role nodes apart (head-only queries, the protocol's most frequent
// by far, run in output-sensitive time), and the epochs of its last
// change in the two views (Touch, TouchLinks). The wild nodes
// (spatial.KeyOf) share one more record. Every
// record keeps both lists in ascending ID order, so a query's cells
// leave ascending runs that merge into its result without a sort.
package radio

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"gs3/internal/fault"
	"gs3/internal/geom"
	"gs3/internal/spatial"
)

// Unicast failure causes, exposed as sentinels so callers (the data
// plane's per-hop accounting in particular) can classify a failed send
// with errors.Is instead of parsing messages.
var (
	// ErrNotOnMedium: an endpoint is absent (dead or never placed).
	ErrNotOnMedium = errors.New("endpoint not on medium")
	// ErrBlackout: an endpoint is transiently crashed (fault layer).
	ErrBlackout = errors.New("endpoint blacked out")
	// ErrOutOfRange: the receiver is beyond the requested range.
	ErrOutOfRange = errors.New("receiver out of range")
	// ErrDeliveryLost: the fault injector dropped the delivery in flight.
	ErrDeliveryLost = errors.New("delivery lost")
	// ErrOccluded: an obstacle blocks the line of sight between the
	// endpoints (SetObstacles).
	ErrOccluded = errors.New("link occluded by obstacle")
)

// NodeID identifies a node on the medium. The big node is always ID 0.
// IDs are allocated densely from 0 by the network layer; the medium's
// per-node state is indexed by them directly.
type NodeID int32

// None is the absent-node sentinel.
const None NodeID = -1

// Params configures the medium.
type Params struct {
	// MaxRange is the maximum transmission range of small nodes.
	MaxRange float64
	// DiffusionSpeed is the paper's c₁: the distance a message diffuses
	// per unit of virtual time.
	DiffusionSpeed float64
	// PerMessageOverhead is the fixed latency added to every message.
	PerMessageOverhead float64
	// CellSize is the side of the spatial index's cells; 0 picks MaxRange.
	CellSize float64
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.MaxRange <= 0 {
		return fmt.Errorf("radio: MaxRange must be positive, got %v", p.MaxRange)
	}
	// Delay derives every message latency from these two, and the event
	// engine rejects a NaN or infinite fire time.
	if !(p.DiffusionSpeed > 0) {
		return fmt.Errorf("radio: DiffusionSpeed must be positive, got %v", p.DiffusionSpeed)
	}
	if !(p.PerMessageOverhead >= 0) || math.IsInf(p.PerMessageOverhead, 1) {
		return fmt.Errorf("radio: PerMessageOverhead must be non-negative and finite, got %v", p.PerMessageOverhead)
	}
	return nil
}

// Stats is the medium's traffic accounting. The fault counters stay
// zero unless an injector is installed (SetFaults), so fault-free runs
// report exactly the pre-fault numbers.
type Stats struct {
	Broadcasts   uint64 // destination-unaware sends
	Unicasts     uint64 // destination-aware sends
	Deliveries   uint64 // per-receiver deliveries
	RangeQueries uint64

	FaultDrops    uint64 // deliveries lost to the fault injector
	FaultDups     uint64 // deliveries duplicated by the fault injector
	BlackoutDrops uint64 // deliveries lost to a blacked-out endpoint
	Blackouts     uint64 // blackout episodes started
	Retries       uint64 // protocol re-issues after a timeout (CountRetry)

	// OcclusionBlocks counts unicasts refused because an obstacle
	// blocked the line of sight. Broadcast receivers behind obstacles
	// are simply never in range, so they leave no counter trail here.
	OcclusionBlocks uint64
}

// Medium is the shared wireless medium. It is single-threaded: every
// range query bumps a counter, so even reads mutate it.
type Medium struct {
	params Params

	// Per-node state, indexed by NodeID (struct-of-arrays): pos is the
	// position, on marks presence on the medium, headRole mirrors the
	// protocol's head-role flag (SetHeadRole), blackout the transient
	// crashes. The slices grow together (ensure) and never shrink.
	pos      []geom.Point
	on       []bool
	headRole []bool
	blackout []bool
	count    int // number of on-medium nodes
	nBlack   int // number of blacked-out nodes

	// recs[c] is the record of cell c of cells, wild the wild nodes'
	// record; near buffers the cell numbers of one query, and merge is
	// the scratch half of gather's merge (mergeRuns), never handed to a
	// caller.
	cells    spatial.Table
	recs     []cell
	wild     cell
	near     []int32
	merge    []NodeID
	cellSize float64

	// bcast is the reusable receiver buffer for Broadcast: steady-state
	// broadcasts allocate nothing. It is distinct from any caller-owned
	// Audience or WithinRangeAppend destination, so a Broadcast result
	// stays valid across interleaved range queries (but not across
	// Broadcasts).
	bcast []NodeID

	// inj injects message faults; nil means a perfectly reliable
	// medium.
	inj *fault.Injector

	// obstacles are opaque polygons: a link whose line of sight crosses
	// one is dead, and range queries (hence broadcasts) do not see
	// across them. Empty means free space — the pre-obstacle medium,
	// bit for bit.
	obstacles []geom.Polygon

	// sendHook, when set, observes every actual transmission (one call
	// per Broadcast or successful-send-attempt Unicast) with the sender
	// ID. The energy model drains batteries through it. Refused sends
	// (absent endpoint, out of range, occluded, blacked-out sender)
	// never fire it: nothing was transmitted.
	sendHook func(sender NodeID, broadcast bool)

	// epoch is the global topology-change counter, a cell's epoch its
	// value at the cell's last change. Place, Remove, blackout toggles,
	// and explicit Touch and TouchLinks calls all bump the affected
	// cells, so a reader that stamped a region with RegionEpoch can later
	// prove "nothing in my query cone changed" with a handful of table
	// reads. assoc is the same counter's value at the last change of the
	// associate view, which sees every change but TouchLinks; a cell's
	// assoc likewise.
	epoch, assoc uint64
	// epochFloor is the epoch of the last TouchAll: a change with
	// unbounded reach (e.g. big-node role state that every head's
	// root test reads) that no ring of cells could cover. RegionEpoch
	// never reports below it, in either view.
	epochFloor uint64

	stats Stats
}

// cell is one cell's record: its on-medium nodes, its head-role nodes,
// both in ascending ID order, and the epochs of its last change in the
// full view and in the associate view.
type cell struct {
	nodes, heads []gridEntry
	epoch, assoc uint64
}

// gridEntry colocates a node's position with its ID inside the cell
// record, so range tests never touch the position slice on the hot
// path. Place and Remove keep it in sync with pos.
type gridEntry struct {
	id  NodeID
	pos geom.Point
}

// cellAt returns the record of the cell holding p, adding the cell if
// the grid has none; the pointer is valid until the next cellAt.
func (m *Medium) cellAt(p geom.Point) *cell {
	k, ok := spatial.KeyOf(p, m.cellSize)
	if !ok {
		return &m.wild
	}
	c := m.cells.Insert(k)
	if int(c) == len(m.recs) {
		m.recs = append(m.recs, cell{})
	}
	return &m.recs[c]
}

// byID orders a cell list's entries.
func byID(e gridEntry, id NodeID) int { return cmp.Compare(e.id, id) }

// with inserts e into the ascending list b, which lacks e.id. An ID
// above every one there, as for each node of a deployment placed in ID
// order, is appended directly: on a 2-CPU host, the binary search and
// slices.Insert made perfbench configure's 200k-node netsim.Build
// 11–14% slower.
func with(b []gridEntry, e gridEntry) []gridEntry {
	if len(b) == 0 || b[len(b)-1].id < e.id {
		return append(b, e)
	}
	i, _ := slices.BinarySearchFunc(b, e.id, byID)
	return slices.Insert(b, i, e)
}

// without removes id's entry from the ascending list b, which holds it.
func without(b []gridEntry, id NodeID) []gridEntry {
	i, _ := slices.BinarySearchFunc(b, id, byID)
	return slices.Delete(b, i, i+1)
}

// NewMedium returns an empty medium.
func NewMedium(params Params) (*Medium, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	cs := params.CellSize
	if cs <= 0 {
		cs = params.MaxRange
	}
	return &Medium{params: params, cellSize: cs}, nil
}

// Params returns the medium's configuration.
func (m *Medium) Params() Params {
	return m.params
}

// Reserve pre-sizes the per-node state slices for n nodes, so a bulk
// deployment's Place calls grow nothing. Purely an optimization.
func (m *Medium) Reserve(n int) {
	if n <= cap(m.pos) {
		return
	}
	m.pos = append(make([]geom.Point, 0, n), m.pos...)
	m.on = append(make([]bool, 0, n), m.on...)
	m.headRole = append(make([]bool, 0, n), m.headRole...)
	m.blackout = append(make([]bool, 0, n), m.blackout...)
}

// ensure grows the per-node slices to cover id.
func (m *Medium) ensure(id NodeID) {
	for int(id) >= len(m.pos) {
		m.pos = append(m.pos, geom.Point{})
		m.on = append(m.on, false)
		m.headRole = append(m.headRole, false)
		m.blackout = append(m.blackout, false)
	}
}

// known reports whether id indexes the per-node slices.
func (m *Medium) known(id NodeID) bool {
	return id >= 0 && int(id) < len(m.on)
}

// Stats returns a copy of the traffic counters.
func (m *Medium) Stats() Stats {
	return m.stats
}

// AddStats credits k×d onto the traffic counters. It exists for
// callers that elide provably redundant work (a sweep whose every query
// and broadcast would reproduce the previous result bit-for-bit) but
// must keep the externally observable accounting identical to having
// done it: they credit the recorded per-sweep counter deltas instead,
// k elided repetitions at once. uint64 products wrap exactly as k
// repeated additions would.
func (m *Medium) AddStats(d Stats, k uint64) {
	mc, dc := m.stats.counters(), d.counters()
	for i := range mc {
		*mc[i] += k * *dc[i]
	}
}

// counters lists every field of s once, in declaration order. The
// counter operations (Sub, Add, AddStats) loop over it, so a field added
// to Stats must be added here, where a test checks the list against the
// declaration.
func (s *Stats) counters() [10]*uint64 {
	return [...]*uint64{
		&s.Broadcasts, &s.Unicasts, &s.Deliveries, &s.RangeQueries,
		&s.FaultDrops, &s.FaultDups, &s.BlackoutDrops, &s.Blackouts, &s.Retries,
		&s.OcclusionBlocks,
	}
}

// Sub returns the counter delta s−prev (field-wise). Meaningful when
// prev is an earlier reading of the same counters.
func (s Stats) Sub(prev Stats) Stats {
	sc, pc := s.counters(), prev.counters()
	for i := range sc {
		*sc[i] -= *pc[i]
	}
	return s
}

// Add returns the field-wise sum s+d.
func (s Stats) Add(d Stats) Stats {
	sc, dc := s.counters(), d.counters()
	for i := range sc {
		*sc[i] += *dc[i]
	}
	return s
}

// SetFaults installs (or, with nil, removes) a fault injector. The
// medium owns no randomness of the injector; it only asks it questions,
// in deterministic per-receiver order.
func (m *Medium) SetFaults(inj *fault.Injector) {
	m.inj = inj
}

// SetObstacles installs the opaque polygons that occlude the medium
// (nil or empty restores free space). The slice is copied; later caller
// mutations do not leak in. Installing obstacles is a topology change
// with unbounded reach, so it bumps the global epoch floor.
func (m *Medium) SetObstacles(obs []geom.Polygon) {
	if len(obs) == 0 {
		m.obstacles = nil
	} else {
		m.obstacles = make([]geom.Polygon, len(obs))
		for i, o := range obs {
			m.obstacles[i] = append(geom.Polygon(nil), o...)
		}
	}
	m.TouchAll()
}

// Obstacles returns the installed obstacle polygons (shared, read-only;
// nil in free space).
func (m *Medium) Obstacles() []geom.Polygon {
	return m.obstacles
}

// SetSendHook installs fn to observe every actual transmission (nil
// removes it). Broadcast fires it once per call; Unicast fires it once
// per attempt that actually transmits (the sender was live, in range
// and unoccluded — delivery may still fail at the receiver).
func (m *Medium) SetSendHook(fn func(sender NodeID, broadcast bool)) {
	m.sendHook = fn
}

// CountRetry records one protocol-level re-issue after a timeout. The
// counter lives in the medium's Stats so the radio report of a run
// shows how much extra traffic unreliability caused.
func (m *Medium) CountRetry() {
	m.stats.Retries++
}

// SetBlackout marks id as transiently crashed (true) or restores it
// (false). A blacked-out node neither sends nor receives, but it keeps
// its position and protocol state.
func (m *Medium) SetBlackout(id NodeID, down bool) {
	if down {
		m.ensure(id)
		if !m.blackout[id] {
			m.blackout[id] = true
			m.nBlack++
			m.stats.Blackouts++
			m.Touch(id)
		}
		return
	}
	if m.known(id) && m.blackout[id] {
		m.blackout[id] = false
		m.nBlack--
		m.Touch(id)
	}
}

// InBlackout reports whether id is currently blacked out.
func (m *Medium) InBlackout(id NodeID) bool {
	return m.nBlack > 0 && m.known(id) && m.blackout[id]
}

// bump records a topology change in cell c, in both views.
func (m *Medium) bump(c *cell) {
	m.epoch++
	c.epoch, c.assoc = m.epoch, m.epoch
	m.assoc = m.epoch
}

// Epoch returns the global topology-epoch counter. It increases
// monotonically with every Place, Remove, blackout toggle, Touch,
// TouchLinks or TouchAll; an unchanged value proves the whole medium
// (and everything protocol code reported via Touch and TouchLinks) is
// exactly as it was.
func (m *Medium) Epoch() uint64 {
	return m.epoch
}

// AssocEpoch returns the counter's value at the last change of the
// associate view: Epoch's, but blind to TouchLinks. An unchanged value
// proves everything but the changes reported through TouchLinks is
// exactly as it was.
func (m *Medium) AssocEpoch() uint64 {
	return m.assoc
}

// Touch bumps the topology epoch of the cell holding node id, in both
// views, marking a change that spatial queries cannot see — protocol
// state attached to the node (role, cell state) rather than its
// position. Nodes not on the medium are ignored; their removal already
// bumped.
func (m *Medium) Touch(id NodeID) {
	if m.known(id) && m.on[id] {
		m.bump(m.cellAt(m.pos[id]))
	}
}

// TouchLinks is Touch for a change the associate view does not see: it
// bumps the cell's full-view epoch only. The protocol reports through it
// the writes to a head's links to other heads, which only heads read.
func (m *Medium) TouchLinks(id NodeID) {
	if m.known(id) && m.on[id] {
		m.epoch++
		m.cellAt(m.pos[id]).epoch = m.epoch
	}
}

// TouchAll marks a change with unbounded reach: every RegionEpoch
// result from now on reflects it, in both views, whatever the region.
func (m *Medium) TouchAll() {
	m.epoch++
	m.epochFloor, m.assoc = m.epoch, m.epoch
}

// RegionEpoch returns the maximum topology epochs, in the full view and
// in the associate view, over the wild cell and the ring of cells a
// range query at (p, dist) could touch (spatial.Ring; every cell for a
// wild p), and never less than the last TouchAll. A caller that stamps a
// computed result with one of them can later prove it current by
// comparing a fresh reading in the same view against the stamp: any
// add/remove/move/blackout/Touch in the cone bumps a cell the ring
// covers in both views, and a TouchLinks in the full view.
func (m *Medium) RegionEpoch(p geom.Point, dist float64) (full, assoc uint64) {
	lo, hi := spatial.Ring(p, dist, m.cellSize)
	m.near = m.cells.Cells(m.near[:0], lo, hi)
	full = max(m.epochFloor, m.wild.epoch)
	assoc = max(m.epochFloor, m.wild.assoc)
	for _, c := range m.near {
		r := &m.recs[c]
		full, assoc = max(full, r.epoch), max(assoc, r.assoc)
	}
	return full, assoc
}

// Place adds or moves a node. A placed node is alive.
func (m *Medium) Place(id NodeID, p geom.Point) {
	if id < 0 {
		return
	}
	m.ensure(id)
	if m.on[id] {
		c := m.cellAt(m.pos[id])
		c.nodes = without(c.nodes, id)
		if m.headRole[id] {
			c.heads = without(c.heads, id)
		}
		m.bump(c)
	} else {
		m.count++
	}
	m.pos[id] = p
	m.on[id] = true
	c := m.cellAt(p)
	c.nodes = with(c.nodes, gridEntry{id, p})
	if m.headRole[id] {
		c.heads = with(c.heads, gridEntry{id, p})
	}
	m.bump(c)
}

// Remove takes a node off the medium (death or leave).
func (m *Medium) Remove(id NodeID) {
	if !m.known(id) || !m.on[id] {
		return
	}
	c := m.cellAt(m.pos[id])
	c.nodes = without(c.nodes, id)
	if m.headRole[id] {
		c.heads = without(c.heads, id)
		m.headRole[id] = false
	}
	m.on[id] = false
	m.count--
	if m.blackout[id] {
		m.blackout[id] = false
		m.nBlack--
	}
	m.bump(c)
}

// SetHeadRole mirrors the protocol's head-role flag for id into the
// medium's head index, so head-only range queries (HeadsWithinRange*)
// answer in output-sensitive time. The protocol layer must call it on
// every transition into or out of a head role; Place keeps the index
// consistent across moves and Remove across deaths. Setting the flag
// does not bump topology epochs — the protocol layer's own Touch on a
// role change covers that.
func (m *Medium) SetHeadRole(id NodeID, head bool) {
	if id < 0 {
		return
	}
	m.ensure(id)
	if m.headRole[id] == head {
		return
	}
	m.headRole[id] = head
	if !m.on[id] {
		return
	}
	c := m.cellAt(m.pos[id])
	if head {
		c.heads = with(c.heads, gridEntry{id, m.pos[id]})
	} else {
		c.heads = without(c.heads, id)
	}
}

// Alive reports whether id is on the medium.
func (m *Medium) Alive(id NodeID) bool {
	return m.known(id) && m.on[id]
}

// IsHead reports whether id holds the head role in the index
// SetHeadRole keeps; Remove clears it.
func (m *Medium) IsHead(id NodeID) bool {
	return m.known(id) && m.headRole[id]
}

// Position returns the node's position; ok is false if the node is not
// on the medium.
func (m *Medium) Position(id NodeID) (geom.Point, bool) {
	if !m.known(id) || !m.on[id] {
		return geom.Point{}, false
	}
	return m.pos[id], true
}

// Count returns the number of nodes currently on the medium.
func (m *Medium) Count() int {
	return m.count
}

// WithinDisk returns the IDs of nodes geometrically within dist of p,
// ignoring obstacles: it answers "who is in this disk", not "who can
// hear a transmission from p". Disasters use it — an obstacle does not
// shield nodes from a blast the way it blocks radio. It counts as one
// range query, so swapping it for WithinRangeAppend in obstacle-free runs
// leaves the stats identical.
func (m *Medium) WithinDisk(p geom.Point, dist float64, exclude NodeID) []NodeID {
	m.stats.RangeQueries++
	return m.gather(nil, p, dist, exclude, false, nil)
}

// WithinRangeAppend appends the IDs of nodes within dist of point p —
// excluding exclude (pass None to exclude nobody) — to dst and returns
// the extended slice. The appended IDs are in ascending order, so with
// dst nil or empty the result is deterministic. Passing a reused dst[:0]
// makes steady-state queries allocation-free.
func (m *Medium) WithinRangeAppend(dst []NodeID, p geom.Point, dist float64, exclude NodeID) []NodeID {
	m.stats.RangeQueries++
	return m.gather(dst, p, dist, exclude, false, m.obstacles)
}

// HeadsWithinRangeAppend appends the IDs of head-role nodes (see
// SetHeadRole) within dist of p — excluding exclude — to dst, in
// ascending order. It scans only the head index, so the cost is
// proportional to the number of heads near p, not the number of nodes.
// It counts as one range query, exactly like the full-index query it
// replaces on the protocol's hot paths.
func (m *Medium) HeadsWithinRangeAppend(dst []NodeID, p geom.Point, dist float64, exclude NodeID) []NodeID {
	m.stats.RangeQueries++
	return m.gather(dst, p, dist, exclude, true, m.obstacles)
}

// HeadsWithinDisk appends the IDs of head-role nodes geometrically
// within dist of p to dst, in ascending order, ignoring obstacles: the
// head-index counterpart of WithinDisk, for callers that test line of
// sight themselves from some other point. It counts as one range query.
func (m *Medium) HeadsWithinDisk(dst []NodeID, p geom.Point, dist float64) []NodeID {
	m.stats.RangeQueries++
	return m.gather(dst, p, dist, None, true, nil)
}

// gather is the kernel behind the range queries: it appends to dst, in
// ascending ID order, the nodes (only the head-role ones, if heads) of
// the cells a disk of radius dist at p can reach (spatial.Bounds) and of
// the wild cell that lie within dist of p, other than exclude. A
// non-empty obs filters out those whose line of sight from p an
// obstacle blocks; nil obs is the free-space kernel of WithinDisk and
// HeadsWithinDisk. A NaN or negative dist encloses nothing. Each record
// it reads lists its nodes in ascending ID order, so the scan leaves
// ascending runs in dst, which mergeRuns merges into one.
func (m *Medium) gather(dst []NodeID, p geom.Point, dist float64, exclude NodeID, heads bool, obs []geom.Polygon) []NodeID {
	if !(dist >= 0) {
		return dst
	}
	lo, hi := spatial.Bounds(p, dist, m.cellSize)
	m.near = m.cells.Cells(m.near[:0], lo, hi)
	r2, start := dist*dist, len(dst)
	for i := -1; i < len(m.near); i++ {
		c := &m.wild
		if i >= 0 {
			c = &m.recs[m.near[i]]
		}
		list := c.nodes
		if heads {
			list = c.heads
		}
		for _, e := range list {
			if e.id != exclude && e.pos.Dist2(p) <= r2 && (len(obs) == 0 || !geom.AnyOccludes(obs, p, e.pos)) {
				dst = append(dst, e.id)
			}
		}
	}
	m.merge = mergeRuns(dst[start:], m.merge)
	return dst
}

// mergeRuns sorts s, ascending runs laid end to end, by merging
// neighbouring runs pairwise, bottom up, until one is left. Its passes
// alternate between s and buf, and it returns buf, grown as need be,
// for the next call: the caller keeps buf apart from every slice it
// hands out, so no merge writes into another query's result.
func mergeRuns(s, buf []NodeID) []NodeID {
	if runEnd(s, 0) == len(s) {
		return buf
	}
	buf = slices.Grow(buf[:0], len(s))[:len(s)]
	src, dst := s, buf
	for runs := 2; runs > 1; src, dst = dst, src {
		runs = 0
		for lo := 0; lo < len(src); runs++ {
			mid := runEnd(src, lo)
			hi := runEnd(src, mid)
			merge(dst[lo:hi], src[lo:mid], src[mid:hi])
			lo = hi
		}
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return buf
}

// runEnd returns the end of the run of s that starts at lo: its first
// descent after lo, or len(s). Each pass of mergeRuns at least halves
// the runs, whatever s holds.
func runEnd(s []NodeID, lo int) int {
	for lo++; lo < len(s) && s[lo-1] <= s[lo]; lo++ {
	}
	return min(lo, len(s))
}

// merge writes the ascending merge of the ascending a and b to out,
// which holds exactly len(a)+len(b).
func merge(out, a, b []NodeID) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out[k], a = a[0], a[1:]
		} else {
			out[k], b = b[0], b[1:]
		}
		k++
	}
	k += copy(out[k:], a)
	copy(out[k:], b)
}

// Delay returns the propagation delay for a transmission covering dist.
func (m *Medium) Delay(dist float64) float64 {
	return m.params.PerMessageOverhead + dist/m.params.DiffusionSpeed
}

// Audience appends to dst the nodes a broadcast from sender over radius
// reaches on the medium as it stands: every other node within radius
// and in line of sight, in ascending ID order. It appends nothing when
// sender is not on the medium. The query is the one every Broadcast
// over the audience counts, so Audience counts nothing itself: a caller
// that broadcasts twice over one unchanged audience (HEAD_ORG's org and
// HeadSet broadcasts) runs the query once and is credited twice, as
// replays are credited for the queries they skip.
func (m *Medium) Audience(dst []NodeID, sender NodeID, radius float64) []NodeID {
	if !m.known(sender) || !m.on[sender] {
		return dst
	}
	return m.gather(dst, m.pos[sender], radius, sender, false, m.obstacles)
}

// Broadcast performs a destination-unaware transmission from sender to
// audience, which must be an Audience of sender on the medium as it
// stands (not a Broadcast result, whose buffer this call overwrites),
// and credits the range query that found it. When a fault
// injector is installed, each receiver independently loses the delivery
// with the injector's per-delivery loss, and surviving deliveries may
// be duplicated (the receiver appears twice, adjacent). It returns the
// surviving receiver IDs (non-decreasing). A blacked-out sender
// transmits nothing; blacked-out receivers hear nothing.
//
// The injector draws per receiver in ascending ID order (blacked-out
// receivers draw nothing), then draws one jitter factor for the
// broadcast — the determinism contract RNG-replay tests rely on. No
// caller reads a broadcast's delay, but its jitter draw stays in the
// fault stream.
//
// The returned slice is backed by a per-Medium buffer: it stays valid
// across range queries and unicasts, but the next Broadcast on this
// medium overwrites it. Callers that retain receivers across
// broadcasts must copy them out.
func (m *Medium) Broadcast(sender NodeID, audience []NodeID) []NodeID {
	if !m.known(sender) || !m.on[sender] || m.InBlackout(sender) {
		return nil
	}
	m.stats.Broadcasts++
	m.stats.RangeQueries++
	if m.sendHook != nil {
		m.sendHook(sender, true)
	}
	out := m.bcast[:0]
	for _, id := range audience {
		if m.InBlackout(id) {
			m.stats.BlackoutDrops++
			continue
		}
		if m.inj.DropDelivery() {
			m.stats.FaultDrops++
			continue
		}
		out = append(out, id)
		if m.inj.DupDelivery() {
			m.stats.FaultDups++
			out = append(out, id)
		}
	}
	m.stats.Deliveries += uint64(len(out))
	m.bcast = out
	m.inj.JitterDelay(0)
	return out
}

// Unicast performs a destination-aware transmission. It returns the
// delay (jittered when a fault injector is installed), and an error if
// either endpoint is absent or out of range. The model's base
// assumption makes unicast reliable; an installed fault injector
// weakens it — a blacked-out endpoint or an injected loss turns the
// send into an error, which the caller must treat as a timeout.
func (m *Medium) Unicast(from, to NodeID, maxRange float64) (float64, error) {
	if !m.known(from) || !m.on[from] {
		return 0, fmt.Errorf("radio: sender %d: %w", from, ErrNotOnMedium)
	}
	pf := m.pos[from]
	if !m.known(to) || !m.on[to] {
		return 0, fmt.Errorf("radio: receiver %d: %w", to, ErrNotOnMedium)
	}
	pt := m.pos[to]
	if m.InBlackout(from) {
		m.stats.BlackoutDrops++
		return 0, fmt.Errorf("radio: sender %d: %w", from, ErrBlackout)
	}
	d := pf.Dist(pt)
	if d > maxRange {
		return 0, fmt.Errorf("radio: %d→%d distance %.3g exceeds range %.3g: %w", from, to, d, maxRange, ErrOutOfRange)
	}
	if len(m.obstacles) != 0 && geom.AnyOccludes(m.obstacles, pf, pt) {
		m.stats.OcclusionBlocks++
		return 0, fmt.Errorf("radio: %d→%d: %w", from, to, ErrOccluded)
	}
	m.stats.Unicasts++
	if m.sendHook != nil {
		m.sendHook(from, false)
	}
	if m.InBlackout(to) {
		m.stats.BlackoutDrops++
		return 0, fmt.Errorf("radio: receiver %d: %w", to, ErrBlackout)
	}
	if m.inj.DropDelivery() {
		m.stats.FaultDrops++
		return 0, fmt.Errorf("radio: %d→%d: %w", from, to, ErrDeliveryLost)
	}
	m.stats.Deliveries++
	return m.inj.JitterDelay(m.Delay(d)), nil
}

// Dist returns the distance between two on-medium nodes, or +Inf if
// either is absent or an obstacle occludes the pair. This is the
// "relative location detection" primitive of the system model: a node
// it cannot hear is a node whose relative location it cannot detect.
func (m *Medium) Dist(a, b NodeID) float64 {
	if !m.known(a) || !m.on[a] || !m.known(b) || !m.on[b] {
		return math.Inf(1)
	}
	if len(m.obstacles) != 0 && geom.AnyOccludes(m.obstacles, m.pos[a], m.pos[b]) {
		return math.Inf(1)
	}
	return m.pos[a].Dist(m.pos[b])
}
