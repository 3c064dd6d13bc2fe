package netsim

import (
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/rng"
	"gs3/internal/traffic"
)

// ServeTraffic builds a data plane over the sim's network, feeding the
// load generator from a stream forked off the trial RNG. The fork
// happens here, after deployment/network/fault forks, so enabling
// traffic never changes the draw order of anything built before it.
// Call Run (or Start and drive the engine yourself) on the returned
// plane; the usual pattern is Configure → StartMaintenance →
// ServeTraffic(...).Run(), optionally with StartChurn for healing
// under load.
func (s *Sim) ServeTraffic(cfg traffic.Config) (*traffic.Plane, error) {
	return traffic.New(s.Net, cfg, s.Src.Fork())
}

// churn drives random membership turnover while traffic flows.
type churn struct {
	s      *Sim
	src    *rng.Source
	period float64
	left   int
}

// StartChurn schedules events random membership events, one every
// period of virtual time: each event kills one uniformly random alive
// small node and joins one fresh node at a uniform position in the
// deployment disk, keeping the population roughly constant. The events
// draw from their own forked stream, so churn composes with traffic
// and faults without perturbing either. Returns immediately; the
// events run on the engine.
func (s *Sim) StartChurn(period float64, events int) {
	if events <= 0 || period <= 0 {
		return
	}
	c := &churn{s: s, src: s.Src.Fork(), period: period, left: events}
	s.Net.Engine().After(period, c.fire)
}

// fire executes one kill+join event and reschedules itself until the
// event budget is spent.
func (c *churn) fire() {
	if c.left <= 0 {
		return
	}
	c.left--
	if id := c.pickVictim(); id != radio.None {
		c.s.Net.Kill(id)
	}
	x, y := c.src.InDisk(c.s.Opt.RegionRadius)
	c.s.Net.Join(geom.Point{X: x, Y: y})
	if c.left > 0 {
		c.s.Net.Engine().After(c.period, c.fire)
	}
}

// pickVictim draws a uniformly random alive small node, or radio.None
// if the bounded rejection sampling finds none.
func (c *churn) pickVictim() radio.NodeID {
	ids := c.s.Net.SortedIDs()
	if len(ids) == 0 {
		return radio.None
	}
	for tries := 0; tries < 64; tries++ {
		id := ids[c.src.Intn(len(ids))]
		if id != c.s.Net.BigID() && c.s.Net.Alive(id) {
			return id
		}
	}
	return radio.None
}
