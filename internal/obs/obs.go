// Package obs is the campaign observability layer: it turns the counter
// surfaces the simulator already keeps — netem's link accounting,
// censor verdicts, the relay cell scheduler, client recovery — into
// deterministic per-virtual-second timelines, and exports them as
// Prometheus text exposition and a self-contained HTML report, both
// read from one table with a row per metric (families, prom.go): a new
// metric is one row, and a new surface its sampling besides. On the
// same plumbing it provides content-addressed caching of world-cell
// results, so repeated campaigns recompute only cells whose inputs
// changed.
//
// A Recorder attaches to one world and samples on the world's own
// virtual clock: the sampler is a chain of clock events, one every
// Interval of virtual time, run inline on the world's driver, so
// samples land at exact virtual instants and are byte-identical across
// runs and across -jobs values. A sample only reads counters: it moves
// no byte and wakes or registers no goroutine, so a sampled world runs
// as the plain one does, and the sampling interval is in no cache
// digest (a lookup that wants a timeline misses an entry without one).
//
// Each sample stores interval deltas (via netem.AcctSnapshot.Sub), not
// cumulative values: deltas sum exactly back to the final snapshot,
// which is the timeline-conservation invariant the simulation-torture
// suite (internal/simtest) checks on every fuzzed world. Samples in
// which nothing moved are elided — virtual drains cost nothing to skip
// — and elision is value-driven, so it never breaks determinism.
package obs

import (
	"slices"
	"sync"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// DefaultInterval is the sampling cadence used when a caller enables
// metrics without choosing one: one virtual second, the resolution the
// paper's timeline figures use.
const DefaultInterval = time.Second

// Recorder samples one world's counters into a Timeline. Create with
// Attach, stop with Close.
type Recorder struct {
	w        *testbed.World
	interval time.Duration

	mu     sync.Mutex
	closed bool
	prev   prevState
	tl     *Timeline
}

// prevState holds the previous sample's cumulative counters, the
// baseline the next sample's deltas subtract from.
type prevState struct {
	acct     netem.AcctSnapshot
	censor   censor.Stats
	relays   map[string]tor.SchedStats
	recovery map[string]tor.RecoveryStats
}

// Attach starts sampling w every interval of virtual time and returns
// the recorder: link accounting, the censor (when attached), every
// relay ever started and each built deployment's recovery counters, all
// re-read at every sample, so relays started and deployments built
// mid-campaign appear from their first live interval. Call from the
// world's driver goroutine. interval <= 0 uses DefaultInterval.
func Attach(w *testbed.World, interval time.Duration) *Recorder {
	if interval <= 0 {
		interval = DefaultInterval
	}
	r := &Recorder{
		w:        w,
		interval: interval,
		prev: prevState{
			relays:   make(map[string]tor.SchedStats),
			recovery: make(map[string]tor.RecoveryStats),
		},
		tl: &Timeline{Interval: interval},
	}
	// The first sample is armed from the run queue, where a goroutine
	// Go spawned here would start and take its timer's sequence number:
	// an EventAt armed here would take a lower one than the events the
	// driver arms before it first parks, and run ahead of them when they
	// fall on the same instant.
	w.Net.Clock().ReadyEvent(r.arm)
	return r
}

// arm schedules the next periodic sample one interval from now.
func (r *Recorder) arm() {
	clock := r.w.Net.Clock()
	clock.EventAt(clock.Now()+r.interval, r.tick)
}

// tick takes one periodic sample and arms the next, until Close. It
// runs inline on the world's driver, where the rest of the world is
// parked; a tick left armed after Close fires and does nothing, or is
// dropped when the world closes first.
func (r *Recorder) tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.sampleLocked()
	r.arm()
}

// Close takes a final sample at the current virtual instant, stops the
// sampler, and returns the finished timeline. Call from the world's
// driver at a quiescent point; after Close the timeline is immutable.
func (r *Recorder) Close() *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.sampleLocked()
		r.closed = true
		r.tl.Final = r.prev.acct
	}
	return r.tl
}

// sampleLocked adds the deltas since the previous sample to the sample
// at the current virtual instant: a new one, or the last one when Close
// lands on the instant a periodic sample was just taken, so no two
// samples share a T. A new sample in which no counter moved is elided,
// but the baselines still advance, so elision never loses a delta.
func (r *Recorder) sampleLocked() {
	s := Sample{T: r.w.Net.Clock().Now()}
	n := len(r.tl.Samples)
	// A folded sample is kept whatever moved since.
	interesting := n > 0 && r.tl.Samples[n-1].T == s.T
	if interesting {
		s, r.tl.Samples = r.tl.Samples[n-1], r.tl.Samples[:n-1]
	}
	regs := &r.tl.Regressions

	acct := r.w.Net.Acct().Snapshot()
	d, reg := acct.Sub(r.prev.acct)
	*regs += reg
	// A zero delta with an unchanged gauge is an uneventful interval.
	if d != (netem.AcctSnapshot{BytesBuffered: r.prev.acct.BytesBuffered}) {
		interesting = true
	}
	s.Acct = s.Acct.Add(d)
	r.prev.acct = acct

	if r.w.Censor != nil {
		cur, old, before := r.w.Censor.Stats(), r.prev.censor, s.Censor
		s.Censor.BlockedDials += clamp(cur.BlockedDials-old.BlockedDials, regs)
		s.Censor.FlowsCut += clamp(cur.FlowsCut-old.FlowsCut, regs)
		s.Censor.Resets += clamp(cur.Resets-old.Resets, regs)
		s.Censor.LossEvents += clamp(cur.LossEvents-old.LossEvents, regs)
		s.Censor.ThrottledSegments += clamp(cur.ThrottledSegments-old.ThrottledSegments, regs)
		if s.Censor != before {
			interesting = true
		}
		r.prev.censor = cur
	}

	for _, relay := range r.w.Relays() {
		name := relay.Name()
		cur, old := relay.SchedStats(), r.prev.relays[name]
		r.prev.relays[name] = cur
		i := slices.IndexFunc(s.Relays, func(p RelayPoint) bool { return p.Relay == name })
		p := RelayPoint{Relay: name}
		if i >= 0 {
			p = s.Relays[i]
		}
		before := p
		p.Pending = cur.Pending
		p.Queued += clamp(cur.Queued-old.Queued, regs)
		p.Flushed += clamp(cur.Flushed-old.Flushed, regs)
		p.Dropped += clamp(cur.Dropped-old.Dropped, regs)
		p.Delay += clamp(cur.DelaySum-old.DelaySum, regs)
		// A point that did not change (in a new sample, a relay with no
		// queue movement and an empty queue) adds nothing to any series.
		if p != before {
			s.Relays = put(s.Relays, i, p)
			interesting = true
		}
	}

	for _, dep := range r.w.BuiltDeployments() {
		cur, old := dep.Recovery(), r.prev.recovery[dep.Name]
		r.prev.recovery[dep.Name] = cur
		i := slices.IndexFunc(s.Recovery, func(p RecoveryPoint) bool { return p.Method == dep.Name })
		p := RecoveryPoint{Method: dep.Name}
		if i >= 0 {
			p = s.Recovery[i]
		}
		before := p
		p.Rebuilds += clamp(cur.Rebuilds-old.Rebuilds, regs)
		p.BuildTimeouts += clamp(cur.BuildTimeouts-old.BuildTimeouts, regs)
		p.StreamFailures += clamp(cur.StreamFailures-old.StreamFailures, regs)
		p.ReAttaches += clamp(cur.ReAttaches-old.ReAttaches, regs)
		p.Abandoned += clamp(cur.Abandoned-old.Abandoned, regs)
		p.GuardProbations += clamp(cur.GuardProbations-old.GuardProbations, regs)
		if p != before {
			s.Recovery = put(s.Recovery, i, p)
			interesting = true
		}
	}

	if interesting {
		r.tl.Samples = append(r.tl.Samples, s)
	}
}

// put sets ps[i] to p, or appends p when i < 0.
func put[P any](ps []P, i int, p P) []P {
	if i < 0 {
		return append(ps, p)
	}
	ps[i] = p
	return ps
}

// clamp clamps a negative delta to zero, counting the regression.
func clamp[T ~int | ~int64](d T, regressions *int) T {
	if d < 0 {
		*regressions++
		return 0
	}
	return d
}
