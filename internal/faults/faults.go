// Package faults injects benign infrastructure failure into a virtual
// world: scheduled relay crashes and restarts, link flaps, and bridge
// churn (descriptors leaving and rejoining the directory). It is the
// counterpart to internal/censor — that package models an adversary
// manipulating traffic it can see; this one models the network simply
// breaking, which on the live Tor network is the common case.
//
// Determinism: Attach compiles a Plan onto the virtual clock as one
// clock event per fault (netem.Clock.EventAt), which arms a second for
// its recovery half, as the censor arms its Block cutovers and load
// phases; no goroutine waits for either. Targets resolve by name at
// *fire* time, so rigs built lazily after Attach (the testbed's
// per-deployment bridges) are still hit, and an event naming a target
// that never appears counts as Skipped instead of failing the world.
// Every state change an event makes — conn aborts, scheduler drops,
// directory edits — goes through the scheduler-aware primitives the rest
// of the simulation uses, so same-seed runs remain byte-identical and
// -jobs 1 ≡ -jobs N equivalence survives.
package faults

import (
	"fmt"
	"sort"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/tor"
)

// Kind is the failure mode of one event.
type Kind int

const (
	// KindCrash kills a relay process: descriptor withdrawn, listener
	// closed, queued cells dropped (Acct-counted), every conn touching
	// the relay's host aborted. A positive Duration restarts the relay
	// after that long; zero leaves it down for good.
	KindCrash Kind = iota
	// KindFlap takes a host's access link down for Duration: live conns
	// touching the host are aborted and new dials fail until the link
	// comes back. Zero Duration leaves the link down.
	KindFlap
	// KindChurn withdraws a relay's descriptor from the directory for
	// Duration, then republishes it — the relay itself keeps running, so
	// existing circuits survive; only consensus-driven selection stops
	// seeing it. Zero Duration means it never rejoins.
	KindChurn
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindFlap:
		return "flap"
	case KindChurn:
		return "churn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event schedules one failure.
type Event struct {
	// Kind is the failure mode.
	Kind Kind
	// Target names the relay (crash/churn) or host (flap) hit. The
	// testbed's volunteer relays run on hosts named after them, so relay
	// names work for all three kinds there.
	Target string
	// At is the virtual instant the failure starts.
	At time.Duration
	// Duration is how long the failure lasts (restart / link-up /
	// rejoin after this long); zero makes it permanent.
	Duration time.Duration
}

// Plan is a named, deterministic fault schedule.
type Plan struct {
	// Name labels the plan in reports.
	Name string
	// Events are the scheduled failures; order carries no meaning (each
	// event is armed independently at its own instant).
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Stats counts what an injector actually did. Events scheduled past the
// end of a campaign never fire and are not counted anywhere.
type Stats struct {
	// Crashes / Restarts count relay kills and recoveries.
	Crashes, Restarts int64
	// FlapsDown / FlapsUp count link-down and link-up transitions.
	FlapsDown, FlapsUp int64
	// Withdrawn / Rejoined count directory churn transitions.
	Withdrawn, Rejoined int64
	// Skipped counts events whose target could not be resolved (or that
	// found their target already in the failed state).
	Skipped int64
}

// Injector executes one plan against a world. Create it with Attach;
// register crashable relays with RegisterRelay as they start.
type Injector struct {
	net   *netem.Network
	dir   *tor.Directory
	clock *netem.Clock

	relays  map[string]*tor.Relay
	flapped map[string]*netem.Host

	stats Stats
}

// Attach compiles the plan onto the network's virtual clock and returns
// the injector. Each event is armed as one clock event; nothing fires
// before its instant, and a world that ends earlier simply never
// observes it.
func Attach(n *netem.Network, dir *tor.Directory, plan Plan) *Injector {
	inj := &Injector{
		net:     n,
		dir:     dir,
		clock:   n.Clock(),
		relays:  make(map[string]*tor.Relay),
		flapped: make(map[string]*netem.Host),
	}
	for _, ev := range plan.Events {
		inj.clock.EventAt(ev.At, func() { inj.fire(ev) })
	}
	return inj
}

// RegisterRelay makes a relay crashable by name. Safe to call after
// Attach — targets resolve at fire time.
func (inj *Injector) RegisterRelay(r *tor.Relay) {
	inj.relays[r.Descriptor().Name] = r
}

// fire executes one event at its instant, in a clock event, and arms its
// recovery half Duration later if it has one.
func (inj *Injector) fire(ev Event) {
	var heal func()
	switch ev.Kind {
	case KindCrash:
		r := inj.relays[ev.Target]
		if r == nil || !r.Crash() {
			inj.stats.Skipped++
			return
		}
		inj.stats.Crashes++
		heal = func() {
			if r.Restart() == nil {
				inj.stats.Restarts++
			} else {
				inj.stats.Skipped++
			}
		}
	case KindFlap:
		h := inj.net.Host(ev.Target)
		if h == nil || h.LinkDown() {
			inj.stats.Skipped++
			return
		}
		inj.flapped[ev.Target] = h
		h.SetLinkDown(true)
		inj.net.AbortHostConns(ev.Target)
		inj.stats.FlapsDown++
		heal = func() {
			h.SetLinkDown(false)
			inj.stats.FlapsUp++
		}
	case KindChurn:
		desc, ok := inj.dir.Lookup(ev.Target)
		if !ok || !inj.dir.Withdraw(ev.Target) {
			inj.stats.Skipped++
			return
		}
		inj.stats.Withdrawn++
		heal = func() {
			if inj.dir.Publish(desc) == nil {
				inj.stats.Rejoined++
			} else {
				inj.stats.Skipped++
			}
		}
	default:
		inj.stats.Skipped++
		return
	}
	if ev.Duration > 0 {
		inj.clock.EventAt(inj.clock.Now()+ev.Duration, heal)
	}
}

// Stats snapshots the injector's transition counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// DownHosts lists, sorted, the hosts that are failed *right now*:
// registered relays still crashed plus flapped hosts whose link is
// still down. The fuzzer's "no flow survives its host's final crash"
// invariant audits open conns against this set at campaign end.
func (inj *Injector) DownHosts() []string {
	set := make(map[string]bool)
	for _, r := range inj.relays {
		if r.Crashed() {
			set[r.Host().Name()] = true
		}
	}
	for name, h := range inj.flapped {
		if h.LinkDown() {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
