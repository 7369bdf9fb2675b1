// Package censor is the programmable adversary and network-weather
// subsystem: a deterministic middlebox that sits on netem paths (via
// netem.Policy) and applies scenario-driven interference — bandwidth
// throttling, added loss and jitter, injected connection resets,
// endpoint blocking with client failover, and time-windowed events —
// all on the virtual clock, so same-seed runs stay byte-identical.
//
// A Scenario names an interference timeline (see the registry in
// scenario.go); Attach compiles it against one network. The testbed
// wires scenarios through testbed.Options.Scenario and the harness
// crosses them with transports in the scenario-sweep experiments.
package censor

import (
	"errors"
	"math/rand"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// ErrBlocked is returned to dialers refused by an active Block rule.
var ErrBlocked = errors.New("censor: connection blocked")

// Stats counts the interference a censor has applied. All counters are
// deterministic functions of the campaign seed.
type Stats struct {
	// BlockedDials counts dials refused by Block rules.
	BlockedDials int
	// FlowsCut counts established flows torn down when a Block rule
	// activated.
	FlowsCut int
	// Resets counts injected mid-flight RSTs.
	Resets int
	// LossEvents counts induced per-segment loss events.
	LossEvents int
	// ThrottledSegments counts segments serialized through a throttle.
	ThrottledSegments int
}

// statsFault, when non-nil, mutates every Stats snapshot before it is
// returned. It exists solely so the simulation-torture suite
// (internal/simtest) can prove its invariant checkers catch a
// miscounting censor: production code must never set it.
var statsFault func(*Stats)

// SetStatsFault installs (or, with nil, removes) the test-only counter
// fault. Set it before any concurrent worlds start and remove it after
// they finish; the hook itself is not synchronized.
func SetStatsFault(f func(*Stats)) { statsFault = f }

// Censor applies one scenario to one network. It implements
// netem.Policy; construct it with Attach.
type Censor struct {
	net   *netem.Network
	clock *netem.Clock
	sc    Scenario
	// shapers[i] is the shared throttle bottleneck of sc.Events[i]
	// (nil for non-throttle rules).
	shapers []*netem.Bucket

	rng     *rand.Rand
	conns   []*netem.Conn
	stats   Stats
	scratch []int // the crossed rules of a flow that brought no memo
}

// Attach compiles a scenario against a network and installs it as the
// network's policy. rateScale multiplies rule rates (the testbed passes
// its ByteScale so throttles shrink with every other byte quantity);
// values <= 0 mean 1. A Block rule's cutover is a clock event at its
// window's start (Clock.EventAt), armed here; call Attach before the
// campaign starts measuring.
func Attach(n *netem.Network, sc Scenario, seed int64, rateScale float64) *Censor {
	if rateScale <= 0 {
		rateScale = 1
	}
	c := &Censor{
		net:   n,
		clock: n.Clock(),
		sc:    sc,
		rng:   sim.NewRand(seed*7919 + 31),
	}
	c.shapers = make([]*netem.Bucket, len(sc.Events))
	n.SetPolicy(c)
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.Rule.RateBps > 0 {
			c.shapers[i] = netem.NewBucket(ev.Rule.RateBps*rateScale, 0)
		}
		// Arm the cutovers: a Block rule activating mid-run tears existing
		// matched flows down at its window start, like a censor flushing
		// state into an access link.
		if ev.Rule.Block && ev.At > 0 {
			c.clock.EventAt(ev.At, func() { c.cut(ev.Rule.Match) })
		}
	}
	return c
}

// Stats returns a snapshot of the interference counters.
func (c *Censor) Stats() Stats {
	s := c.stats
	if statsFault != nil {
		statsFault(&s)
	}
	return s
}

// BindLoad connects the endpoint-weather timeline to a pool controller
// (the snowflake deployment's SetLoad). The phase active now is applied
// immediately; each future phase is a clock event at its instant, so fn
// must never park.
func (c *Censor) BindLoad(fn func(LoadPhase)) {
	if fn == nil || len(c.sc.Phases) == 0 {
		return
	}
	now := c.clock.Now()
	cur := -1
	for i, ph := range c.sc.Phases {
		if ph.At <= now {
			cur = i
			continue
		}
		c.clock.EventAt(ph.At, func() { fn(ph) })
	}
	if cur >= 0 {
		fn(c.sc.Phases[cur])
	}
}

// cut aborts every live flow crossing the match.
func (c *Censor) cut(m Match) {
	var victims []*netem.Conn
	for _, conn := range c.conns {
		if conn.Closed() {
			continue
		}
		if m.Hit(conn.LocalAddr().String(), conn.RemoteAddr().String()) {
			victims = append(victims, conn)
		}
	}
	c.stats.FlowsCut += len(victims)
	for _, conn := range victims {
		conn.Abort()
	}
}

// FilterDial implements netem.Policy: active Block rules refuse new
// matched connections.
func (c *Censor) FilterDial(src, dst string) error {
	now := c.clock.Now()
	for i := range c.sc.Events {
		ev := &c.sc.Events[i]
		if ev.Rule.Block && ev.active(now) && ev.Rule.Match.Hit(src, dst) {
			c.stats.BlockedDials++
			return ErrBlocked
		}
	}
	return nil
}

// ConnOpened implements netem.Policy: it registers live flows so a
// Block activation can cut them. A conn whose handshake straddled a
// Block activation — FilterDial passed before At, establishment
// finished after — is aborted here instead of escaping the block. The
// registry prunes itself once closed conns dominate.
func (c *Censor) ConnOpened(conn *netem.Conn) {
	now := c.clock.Now()
	for i := range c.sc.Events {
		ev := &c.sc.Events[i]
		if ev.Rule.Block && ev.active(now) &&
			ev.Rule.Match.Hit(conn.LocalAddr().String(), conn.RemoteAddr().String()) {
			conn.Abort()
			c.stats.FlowsCut++
			return
		}
	}
	if len(c.conns) >= 64 && len(c.conns)%64 == 0 {
		live := c.conns[:0]
		for _, cn := range c.conns {
			if !cn.Closed() {
				live = append(live, cn)
			}
		}
		for i := len(live); i < len(c.conns); i++ {
			c.conns[i] = nil
		}
		c.conns = live
	}
	c.conns = append(c.conns, conn)
}

// crossed returns the events whose match the flow crosses, in event
// order. Match.Hit reads only the flow's endpoints and the scenario, both
// fixed, so a conn's flow is matched once and the answer kept in its memo.
func (c *Censor) crossed(f netem.Flow) []int {
	m := f.Memo
	if m == nil {
		c.scratch = c.match(c.scratch[:0], f.Src, f.Dst)
		return c.scratch
	}
	if m.Owner != c {
		m.Owner, m.Rules = c, c.match(nil, f.Src, f.Dst)
	}
	return m.Rules
}

// match appends the indices of the events a src→dst flow crosses.
func (c *Censor) match(to []int, src, dst string) []int {
	for i := range c.sc.Events {
		if c.sc.Events[i].Rule.Match.Hit(src, dst) {
			to = append(to, i)
		}
	}
	return to
}

// FilterSegment implements netem.Policy: it applies every active rule
// the flow crosses to the segment — reset first, then throttling, fixed
// delay, jitter and loss penalties accumulated into one verdict. Rules
// are visited in event order and draw from c.rng only while active: the
// draws of testing every rule against every segment.
func (c *Censor) FilterSegment(f netem.Flow, n int) netem.Verdict {
	now := c.clock.Now()
	var v netem.Verdict
	for _, i := range c.crossed(f) {
		ev := &c.sc.Events[i]
		if !ev.active(now) {
			continue
		}
		r := &ev.Rule
		if r.Block {
			// Backstop for any matched flow still alive inside a block
			// window: the censor RSTs its traffic on sight.
			c.stats.Resets++
			return netem.Verdict{Action: netem.Reset}
		}
		if r.ResetProb > 0 && c.rng.Float64() < r.ResetProb {
			c.stats.Resets++
			return netem.Verdict{Action: netem.Reset}
		}
		if sh := c.shapers[i]; sh != nil && v.Shaper == nil {
			v.Shaper = sh
			c.stats.ThrottledSegments++
		}
		v.Extra += r.ExtraDelay
		if r.Jitter > 0 {
			v.Extra += time.Duration(c.rng.Int63n(int64(r.Jitter)))
		}
		if r.Loss > 0 && c.rng.Float64() < r.Loss {
			pen := r.LossPenalty
			if pen <= 0 {
				pen = 250 * time.Millisecond
			}
			v.Extra += pen
			c.stats.LossEvents++
		}
	}
	if v.Extra > 0 || v.Shaper != nil {
		v.Action = netem.Impair
	}
	return v
}
