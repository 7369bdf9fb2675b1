package censor

import (
	"fmt"
	"math/rand"
	"time"
)

// This file provides the scenario combinators the simulation-torture
// suite (internal/simtest) builds randomized worlds from: Compose
// splices existing scenarios into one timeline, RandomScenario draws a
// fresh composed scenario from a seeded stream, and Validate holds a
// scenario to the paper-scale envelope every generated rule stays
// inside — so a fuzzed world is adversarial but never physically
// implausible (a throttle below dial-up, a 90% reset rate) in a way the
// paper's campaigns could not encounter.

// Compose splices scenarios into one named timeline: the events of every
// input concatenate in order, and the phases come from the first input
// that has any (two endpoint-weather timelines cannot drive one proxy
// pool, so later phase sets are ignored).
func Compose(name, description string, scs ...Scenario) Scenario {
	out := Scenario{Name: name, Description: description}
	for _, sc := range scs {
		out.Events = append(out.Events, sc.Events...)
		if len(out.Phases) == 0 {
			out.Phases = append(out.Phases, sc.Phases...)
		}
	}
	return out
}

// The envelope generated rules must stay inside, that of the paper's
// measurement conditions: throttles between dial-up-like 256 KB/s and
// the 8 MB/s where they stop binding (paper-scale bytes per virtual
// second, before ByteScale), loss under 8%, resets under 3% (GFW-style
// injection observed in the wild stays in low single digits), and
// windows inside the first simulated minute — the horizon the built-in
// scenarios use (a window of 0, "rest of the run", is always allowed),
// with at most maxEvents rules.
const (
	minRateBps    = 256 << 10
	maxRateBps    = 8 << 20
	maxExtraDelay = 200 * time.Millisecond
	maxJitter     = 100 * time.Millisecond
	maxLoss       = 0.08
	maxResetProb  = 0.03
	maxAt         = 60 * time.Second
	maxDuration   = 60 * time.Second
	maxEvents     = 12
)

// Validate checks every event of a scenario against the paper-scale
// envelope. The built-in registry scenarios satisfy it, and
// RandomScenario only emits scenarios that do; the fuzzer's invariant
// suite re-checks both claims on every generated world.
func Validate(sc Scenario) error {
	if len(sc.Events) > maxEvents {
		return fmt.Errorf("censor: scenario %q has %d events, bound is %d", sc.Name, len(sc.Events), maxEvents)
	}
	for i, ev := range sc.Events {
		r := ev.Rule
		where := fmt.Sprintf("censor: scenario %q event %d (%s)", sc.Name, i, r.Name)
		if ev.At < 0 || ev.At > maxAt {
			return fmt.Errorf("%s: activation %v outside [0, %v]", where, ev.At, maxAt)
		}
		if ev.Duration < 0 || ev.Duration > maxDuration {
			return fmt.Errorf("%s: duration %v outside [0, %v]", where, ev.Duration, maxDuration)
		}
		if r.RateBps != 0 && (r.RateBps < minRateBps || r.RateBps > maxRateBps) {
			return fmt.Errorf("%s: rate %.0f B/s outside [%.0f, %.0f]", where, r.RateBps, float64(minRateBps), float64(maxRateBps))
		}
		if r.ExtraDelay < 0 || r.ExtraDelay > maxExtraDelay {
			return fmt.Errorf("%s: extra delay %v outside [0, %v]", where, r.ExtraDelay, maxExtraDelay)
		}
		if r.Jitter < 0 || r.Jitter > maxJitter {
			return fmt.Errorf("%s: jitter %v outside [0, %v]", where, r.Jitter, maxJitter)
		}
		if r.Loss < 0 || r.Loss > maxLoss {
			return fmt.Errorf("%s: loss %.3f outside [0, %.3f]", where, r.Loss, maxLoss)
		}
		if r.ResetProb < 0 || r.ResetProb > maxResetProb {
			return fmt.Errorf("%s: reset prob %.3f outside [0, %.3f]", where, r.ResetProb, maxResetProb)
		}
	}
	for i, ph := range sc.Phases {
		if ph.At < 0 {
			return fmt.Errorf("censor: scenario %q phase %d (%s): negative activation %v", sc.Name, i, ph.Label, ph.At)
		}
		if ph.Util < 0 || ph.Util > 1 {
			return fmt.Errorf("censor: scenario %q phase %d (%s): utilization %.3f outside [0, 1]", sc.Name, i, ph.Label, ph.Util)
		}
	}
	return nil
}

// randomBaseNames are the registry scenarios RandomScenario may splice
// in. The list is fixed (not read from the registry) so a generated
// scenario depends only on its seed, never on what other packages have
// registered in the process.
var randomBaseNames = []string{
	"clean", "throttle-surge", "lossy-path", "bridge-block",
	"snowflake-surge", "rst-injection", "evening-congestion",
	"origin-throttle",
}

// randomHostPatterns are the endpoint globs random rules aim at: the
// client's whole access link, the web origin, PT bridge and server
// fleets, snowflake volunteers, or the volunteer guard fleet.
var randomHostPatterns = [][]string{
	nil,
	{"origin*"},
	{"*-bridge-*", "*-server-*"},
	{"snowflake-proxy-*"},
	{"guard-*"},
}

// RandomScenario draws a composed scenario from the seeded stream:
// zero to two registry scenarios spliced together plus zero to three
// randomized throttle / loss / delay / RST / block rules, every knob
// uniform inside the envelope. Equal seeds always produce the identical
// scenario; the result always passes Validate (composition is capped
// at maxEvents).
func RandomScenario(seed int64) Scenario {
	//simlint:allow seededrand -- a spec generator, run once per world: the persisted simtest-v1 repro lines mean math/rand's draws
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name:        fmt.Sprintf("random-%x", uint64(seed)),
		Description: "randomized composed scenario (simulation torture)",
	}

	// Splice registered base scenarios.
	for _, k := range rng.Perm(len(randomBaseNames))[:rng.Intn(3)] {
		base, err := Lookup(randomBaseNames[k])
		if err != nil {
			continue
		}
		sc = Compose(sc.Name, sc.Description, sc, base)
	}

	// Add fresh randomized rules.
	dur := func(max time.Duration) time.Duration {
		return time.Duration(rng.Int63n(int64(max) + 1))
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		ev := Event{At: dur(maxAt)}
		// Half the windows are finite, half run to the end of the world.
		if rng.Intn(2) == 0 {
			ev.Duration = dur(maxDuration)
		}
		r := Rule{
			Name:  fmt.Sprintf("random-rule-%d", i),
			Match: Match{Via: client, Hosts: randomHostPatterns[rng.Intn(len(randomHostPatterns))]},
		}
		switch rng.Intn(5) {
		case 0:
			r.RateBps = minRateBps + float64(rng.Float64()*(maxRateBps-minRateBps))
			r.ExtraDelay = dur(maxExtraDelay)
		case 1:
			r.Loss = rng.Float64() * maxLoss
			r.Jitter = dur(maxJitter)
		case 2:
			r.ExtraDelay = dur(maxExtraDelay)
			r.Jitter = dur(maxJitter)
		case 3:
			r.ResetProb = rng.Float64() * maxResetProb
		case 4:
			r.Block = true
		}
		ev.Rule = r
		sc.Events = append(sc.Events, ev)
	}
	if len(sc.Events) > maxEvents {
		sc.Events = sc.Events[:maxEvents]
	}
	return sc
}
