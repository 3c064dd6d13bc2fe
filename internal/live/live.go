// Package live executes the GS³-S diffusing computation at message
// granularity with one goroutine per node — the concurrent counterpart
// of the event-driven runtime in internal/core, used to demonstrate
// that the protocol, not the simulator, produces the structure.
//
// The router plays the wireless medium: broadcasts reach every node
// within range, and the paper's channel reservation ("two neighboring
// heads within √3R+2Rt cannot run HEAD_ORG in parallel") is realized as
// a region lock, which is exactly what carrier sensing plus the paper's
// reservation protocol provide.
//
// The final structure is cross-checked against the event-driven runtime
// in tests: same deployment, same parameters, same heads.
package live

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"gs3/internal/core"
	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/radio"
)

// msgKind discriminates protocol messages.
type msgKind int

const (
	msgOrg msgKind = iota + 1
	msgOrgReply
	msgHeadSet
	msgShutdown
)

// selection is one (node, IL) pair announced in a HeadSet.
type selection struct {
	ID radio.NodeID
	IL geom.Point
}

// message is what travels between node goroutines.
type message struct {
	Kind msgKind
	From radio.NodeID

	// org fields
	OrgID uint64 // correlates replies with the head's round

	// orgReply fields
	Pos    geom.Point
	IsHead bool
	IL     geom.Point

	// headSet fields
	Selected []selection
	HeadPos  geom.Point
	HeadIL   geom.Point
}

// router is the shared medium: positions, range-based delivery, and the
// channel-reservation lock.
type router struct {
	mu    sync.Mutex
	nodes map[radio.NodeID]*liveNode

	resMu       sync.Mutex
	reservation map[radio.NodeID][2]geom.Point // id -> {center, (radius,0)}
}

func newRouter() *router {
	return &router{
		nodes:       make(map[radio.NodeID]*liveNode),
		reservation: make(map[radio.NodeID][2]geom.Point),
	}
}

// broadcast delivers m to every node within radius of from's position
// (excluding the sender) and returns the recipient count.
func (r *router) broadcast(from radio.NodeID, radius float64, m message) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	src := r.nodes[from]
	count := 0
	for id, n := range r.nodes {
		if id == from {
			continue
		}
		if n.pos.Dist(src.pos) <= radius {
			n.inbox.put(m)
			count++
		}
	}
	return count
}

// unicast delivers m to a specific node.
func (r *router) unicast(to radio.NodeID, m message) {
	r.mu.Lock()
	n := r.nodes[to]
	r.mu.Unlock()
	if n != nil {
		n.inbox.put(m)
	}
}

// tryReserve registers a reservation for id if no overlapping one is
// active and reports whether it succeeded. A waiting head must keep
// serving its inbox between attempts (peers block on its org replies),
// so blocking here would deadlock — callers poll instead.
func (r *router) tryReserve(id radio.NodeID, center geom.Point, radius float64) bool {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	for _, res := range r.reservation {
		c, rad := res[0], res[1].X
		if c.Dist(center) < rad+radius {
			return false
		}
	}
	r.reservation[id] = [2]geom.Point{center, {X: radius}}
	return true
}

// release drops id's reservation.
func (r *router) release(id radio.NodeID) {
	r.resMu.Lock()
	delete(r.reservation, id)
	r.resMu.Unlock()
}

// mailbox is a node's inbox. put never blocks, so the router can
// deliver a broadcast to every node in range while it holds its lock,
// and the queue's memory follows the messages actually sent rather than
// the size of the network. Only the owning node takes messages out.
type mailbox struct {
	mu   sync.Mutex
	msgs []message
	wake chan struct{} // 1-buffered: a put leaves a token for a waiting get
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{}, 1)}
}

// put queues m and wakes the owner if it waits.
func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// tryGet takes the oldest queued message, if there is one.
func (b *mailbox) tryGet() (message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.msgs) == 0 {
		return message{}, false
	}
	m := b.msgs[0]
	b.msgs = b.msgs[1:]
	return m, true
}

// get takes the oldest queued message, waiting for one if none is.
func (b *mailbox) get() message {
	for {
		if m, ok := b.tryGet(); ok {
			return m
		}
		<-b.wake
	}
}

// knownHead is a head a small node has heard about.
type knownHead struct {
	pos geom.Point
	il  geom.Point
}

// liveNode is one node goroutine's state.
type liveNode struct {
	id    radio.NodeID
	pos   geom.Point
	isBig bool

	inbox *mailbox

	// head state (set when selected)
	head     bool
	il       geom.Point
	parentIL geom.Point
	parent   radio.NodeID
	hops     int

	// associate state
	heads map[radio.NodeID]knownHead

	// replies buffered while waiting for something else
	pending []message
}

// Report is a node's final state after the computation terminates.
type Report struct {
	ID     radio.NodeID
	IsHead bool
	IL     geom.Point
	Head   radio.NodeID
}

// Result is the outcome of a live run.
type Result struct {
	Reports []Report // ascending ID
}

// Run executes the GS³-S diffusing computation over the deployment with
// one goroutine per node and returns the final structure. It blocks
// until the computation terminates (Corollary 4 guarantees it does).
func Run(cfg core.Config, dep field.Deployment) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if dep.N() == 0 {
		return Result{}, fmt.Errorf("live: empty deployment")
	}
	r := newRouter()
	nodes := make([]*liveNode, dep.N())
	for i, p := range dep.Positions {
		n := &liveNode{
			id:    radio.NodeID(i),
			pos:   p,
			isBig: i == 0,
			inbox: newMailbox(),
			heads: make(map[radio.NodeID]knownHead),
		}
		nodes[i] = n
		r.nodes[n.id] = n
	}

	// completions carries, per finished HEAD_ORG, the number of newly
	// selected heads, for the driver's diffusing-computation
	// termination detection.
	completions := make(chan int, dep.N())

	// Seed before launching any goroutine: the big node is the 0-band
	// head with IL at its own position, and its inbox holds the kickoff
	// HeadSet.
	big := nodes[0]
	big.head = true
	big.il = big.pos
	big.parentIL = big.pos
	big.parent = big.id
	big.hops = 0
	big.inbox.put(message{Kind: msgHeadSet, From: big.id,
		Selected: []selection{{ID: big.id, IL: big.pos}},
		HeadPos:  big.pos, HeadIL: big.pos})

	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.loop(cfg, r, completions)
		}()
	}

	// Termination: one HEAD_ORG pending (the big node's); each
	// completion retires one and adds the newly selected ones.
	pending := 1
	for pending > 0 {
		pending += <-completions - 1
	}

	// Shut everyone down and collect reports.
	reports := make(chan Report, dep.N())
	for _, n := range nodes {
		n.inbox.put(message{Kind: msgShutdown})
	}
	wg.Wait()
	for _, n := range nodes {
		reports <- n.report(cfg)
	}
	close(reports)

	var res Result
	for rep := range reports {
		res.Reports = append(res.Reports, rep)
	}
	slices.SortFunc(res.Reports, func(a, b Report) int { return int(a.ID - b.ID) })
	return res, nil
}

// loop is the node goroutine body.
func (n *liveNode) loop(cfg core.Config, r *router, completions chan<- int) {
	for {
		m := n.next()
		switch m.Kind {
		case msgShutdown:
			return
		case msgOrg:
			// ASSOCIATE_ORG_RESP / HEAD_ORG_RESP: reply with our state.
			r.unicast(m.From, message{
				Kind: msgOrgReply, From: n.id, OrgID: m.OrgID,
				Pos: n.pos, IsHead: n.head, IL: n.il,
			})
		case msgHeadSet:
			n.noteHeadSet(m)
			if !n.head {
				if sel, ok := selectedIn(m, n.id); ok {
					n.head = true
					n.il = sel.IL
					n.parent = m.From
					n.parentIL = m.HeadIL
					n.headOrg(cfg, r, completions)
				}
			} else if n.isBig && m.From == n.id && n.hops == 0 && m.Selected[0].ID == n.id {
				// The seed message: run the root HEAD_ORG.
				n.headOrg(cfg, r, completions)
			}
		case msgOrgReply:
			// A stray reply outside a HEAD_ORG window: drop it.
		}
	}
}

// next pops a buffered message or blocks on the inbox.
func (n *liveNode) next() message {
	if len(n.pending) > 0 {
		m := n.pending[0]
		n.pending = n.pending[1:]
		return m
	}
	return n.inbox.get()
}

// noteHeadSet records every head announced in a HeadSet for the final
// best-head choice.
func (n *liveNode) noteHeadSet(m message) {
	n.heads[m.From] = knownHead{pos: m.HeadPos, il: m.HeadIL}
	for _, sel := range m.Selected {
		if sel.ID != n.id {
			n.heads[sel.ID] = knownHead{il: sel.IL} // position learned later
		}
	}
}

func selectedIn(m message, id radio.NodeID) (selection, bool) {
	for _, s := range m.Selected {
		if s.ID == id {
			return s, true
		}
	}
	return selection{}, false
}

// headOrg runs the message-level HEAD_ORG at this node.
func (n *liveNode) headOrg(cfg core.Config, r *router, completions chan<- int) {
	radius := cfg.SearchRadius() + cfg.Rt
	// Acquire the channel reservation, serving org requests from peers
	// in the meantime (they hold reservations and wait on our reply).
	for !r.tryReserve(n.id, n.il, radius) {
		m, ok := n.inbox.tryGet()
		switch {
		case !ok:
			runtime.Gosched()
		case m.Kind == msgOrg:
			r.unicast(m.From, message{
				Kind: msgOrgReply, From: n.id, OrgID: m.OrgID,
				Pos: n.pos, IsHead: true, IL: n.il,
			})
		default:
			n.pending = append(n.pending, m)
		}
	}
	defer r.release(n.id)

	orgID := uint64(n.id)<<32 | 1
	count := r.broadcast(n.id, radius, message{Kind: msgOrg, From: n.id, OrgID: orgID})

	// Collect exactly count replies; buffer everything else.
	type resp struct {
		id     radio.NodeID
		pos    geom.Point
		isHead bool
		il     geom.Point
	}
	replies := make([]resp, 0, count)
	for len(replies) < count {
		m := n.inbox.get()
		if m.Kind == msgOrgReply && m.OrgID == orgID {
			replies = append(replies, resp{m.From, m.Pos, m.IsHead, m.IL})
			continue
		}
		if m.Kind == msgOrg {
			// Answer immediately: the peer head is waiting on us.
			r.unicast(m.From, message{
				Kind: msgOrgReply, From: n.id, OrgID: m.OrgID,
				Pos: n.pos, IsHead: true, IL: n.il,
			})
			continue
		}
		n.pending = append(n.pending, m)
	}

	// HEAD_SELECT over the replies, reusing the core geometry.
	isRoot := n.isBig && n.parent == n.id
	sector := core.SearchSector(cfg, n.il, n.parentIL, isRoot)
	posOf := make(map[radio.NodeID]geom.Point, len(replies))
	var smallInSector []radio.NodeID
	var headILs []geom.Point
	for _, rep := range replies {
		posOf[rep.id] = rep.pos
		if rep.isHead {
			headILs = append(headILs, rep.il)
			continue
		}
		if sector.Contains(rep.pos) {
			smallInSector = append(smallInSector, rep.id)
		}
	}
	slices.Sort(smallInSector)

	var selected []selection
	taken := map[radio.NodeID]bool{}
	for _, il := range core.NeighborILs(cfg, n.il, n.parentIL, isRoot) {
		if owned(il, headILs, cfg.Rt) {
			continue
		}
		var ca []radio.NodeID
		for _, id := range smallInSector {
			if !taken[id] && posOf[id].Dist(il) <= cfg.Rt {
				ca = append(ca, id)
			}
		}
		best, ok := core.BestCandidate(il, cfg.GR, ca, func(id radio.NodeID) geom.Point { return posOf[id] })
		if !ok {
			continue
		}
		taken[best] = true
		selected = append(selected, selection{ID: best, IL: il})
	}

	r.broadcast(n.id, radius, message{
		Kind: msgHeadSet, From: n.id,
		Selected: selected, HeadPos: n.pos, HeadIL: n.il,
	})
	completions <- len(selected)
}

func owned(il geom.Point, headILs []geom.Point, rt float64) bool {
	for _, h := range headILs {
		if h.Dist(il) <= rt {
			return true
		}
	}
	return false
}

// report computes the node's final view: heads report their cell,
// associates pick the best (closest, ⟨d,|A|,A⟩-ranked) head they heard.
func (n *liveNode) report(cfg core.Config) Report {
	rep := Report{ID: n.id, IsHead: n.head, IL: n.il, Head: radio.None}
	if n.head {
		return rep
	}
	ids := make([]radio.NodeID, 0, len(n.heads))
	for id, h := range n.heads {
		if h.pos == (geom.Point{}) && id != 0 {
			// A head we only know by selection announcement sits within
			// Rt of its IL; approximate its position by the IL.
			h.pos = h.il
			n.heads[id] = h
		}
		if n.pos.Dist(n.heads[id].pos) <= cfg.SearchRadius() {
			ids = append(ids, id)
		}
	}
	best, ok := core.BestCandidate(n.pos, cfg.GR, ids, func(id radio.NodeID) geom.Point { return n.heads[id].pos })
	if !ok {
		return rep
	}
	rep.Head = best
	return rep
}
