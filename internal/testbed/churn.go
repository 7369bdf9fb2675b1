package testbed

import (
	"fmt"
	"time"

	"ptperf/internal/faults"
)

// This file is the relay-churn scenario family: deterministic fault
// plans that crash, flap and churn the volunteer fleet while the
// measured methods keep downloading. A plan must exist before its world
// is built (it rides Options.FaultSpec), so ChurnPlanFor is a pure
// function of the level and the fleet size — no World handle, no RNG:
// the schedule is byte-identical across runs and across -jobs values
// by construction.

// ChurnLevel is one infrastructure-failure-rate point of the family.
type ChurnLevel struct {
	// Name labels the level in reports ("none" is the fault-free
	// baseline).
	Name string
	// Period is the gap between consecutive scheduled failures; zero
	// means no failures at all.
	Period time.Duration
	// Downtime is how long each failure lasts before the relay
	// restarts, the link comes back, or the descriptor rejoins.
	Downtime time.Duration
}

// ChurnLevels is the canonical churn sweep: the fault-free baseline,
// a failure every virtual minute, and a failure every 20 virtual
// seconds — the last aggressive enough that most bulk downloads lose a
// relay mid-transfer.
var ChurnLevels = []ChurnLevel{
	{Name: "none"},
	{Name: "slow", Period: 60 * time.Second, Downtime: 30 * time.Second},
	{Name: "fast", Period: 20 * time.Second, Downtime: 10 * time.Second},
}

// ChurnLevelNames lists the family in sweep order.
func ChurnLevelNames() []string {
	out := make([]string, len(ChurnLevels))
	for i, lv := range ChurnLevels {
		out[i] = lv.Name
	}
	return out
}

// churnStart delays the first failure so clients can preheat circuits
// on healthy infrastructure; failures then land mid-measurement.
const churnStart = 30 * time.Second

// ChurnPlanFor compiles a level into a concrete fault schedule for the
// volunteer fleet the given Options will build (Guards/Middles/Exits
// after defaulting). Failures rotate round-robin over four moves —
// crash a middle, crash an exit, flap a guard's link, churn a guard's
// descriptor — each hitting the next relay of its class, so no relay
// is re-failed before it recovered and every failure mode appears
// throughout the horizon. Crash and flap targets are volunteer relays
// only, which run on dedicated same-named hosts; PT bridge hosts are
// never touched, so the plan perturbs the Tor path, not the transport
// tunnel itself.
func ChurnPlanFor(lv ChurnLevel, o Options, horizon time.Duration) faults.Plan {
	o = o.WithDefaults()
	guards, middles, exits := o.Guards, o.Middles, o.Exits
	p := faults.Plan{Name: lv.Name}
	if lv.Period <= 0 || guards <= 0 || middles <= 0 || exits <= 0 {
		return p
	}
	var mi, ei, gi int
	k := 0
	for at := churnStart; at < horizon; at += lv.Period {
		var ev faults.Event
		switch k % 4 {
		case 0:
			ev = faults.Event{Kind: faults.KindCrash, Target: fmt.Sprintf("middle-%d", mi%middles)}
			mi++
		case 1:
			ev = faults.Event{Kind: faults.KindCrash, Target: fmt.Sprintf("exit-%d", ei%exits)}
			ei++
		case 2:
			ev = faults.Event{Kind: faults.KindFlap, Target: fmt.Sprintf("guard-%d", gi%guards)}
			gi++
		case 3:
			ev = faults.Event{Kind: faults.KindChurn, Target: fmt.Sprintf("guard-%d", gi%guards)}
			gi++
		}
		ev.At = at
		ev.Duration = lv.Downtime
		p.Events = append(p.Events, ev)
		k++
	}
	return p
}
