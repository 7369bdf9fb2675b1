package censor

import (
	"fmt"
	"math/rand"
	"time"
)

// This file provides the scenario combinators the simulation-torture
// suite (internal/simtest) builds randomized worlds from: Compose
// splices existing scenarios into one timeline, RandomScenario draws a
// fresh composed scenario from a seeded stream, and Bounds states the
// paper-scale envelope every generated rule must stay inside — so a
// fuzzed world is adversarial but never physically implausible (a
// throttle below dial-up, a 90% reset rate) in a way the paper's
// campaigns could not encounter.

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

// Bounds is the envelope generated rules must stay inside. The zero
// value is invalid; use PaperBounds.
type Bounds struct {
	// RateBps bounds throttle capacities [min, max] (paper-scale bytes
	// per virtual second, before ByteScale).
	RateBps [2]float64
	// MaxExtraDelay bounds fixed added latency per rule.
	MaxExtraDelay time.Duration
	// MaxJitter bounds per-segment random extra latency.
	MaxJitter time.Duration
	// MaxLoss bounds added per-segment loss probability.
	MaxLoss float64
	// MaxResetProb bounds injected-RST probability.
	MaxResetProb float64
	// MaxAt bounds rule activation instants.
	MaxAt time.Duration
	// MaxDuration bounds finite rule windows (0 windows — "rest of the
	// run" — are always allowed).
	MaxDuration time.Duration
	// MaxEvents bounds a scenario's total rule count.
	MaxEvents int
}

// PaperBounds returns the envelope of the paper's measurement
// conditions: throttles between dial-up-like 256 KB/s and the 8 MB/s
// where they stop binding, loss under 8%, resets under 3% (GFW-style
// injection observed in the wild stays in low single digits), and
// windows inside the first simulated minute — the horizon the built-in
// scenarios use.
func PaperBounds() Bounds {
	return Bounds{
		RateBps:       [2]float64{256 << 10, 8 << 20},
		MaxExtraDelay: 200 * time.Millisecond,
		MaxJitter:     100 * time.Millisecond,
		MaxLoss:       0.08,
		MaxResetProb:  0.03,
		MaxAt:         60 * time.Second,
		MaxDuration:   60 * time.Second,
		MaxEvents:     12,
	}
}

// Validate checks every event of a scenario against the bounds. The
// built-in registry scenarios satisfy PaperBounds, and RandomScenario
// only emits scenarios that do; the fuzzer's invariant suite re-checks
// both claims on every generated world.
func (b Bounds) Validate(sc Scenario) error {
	if b.MaxEvents > 0 && len(sc.Events) > b.MaxEvents {
		return fmt.Errorf("censor: scenario %q has %d events, bound is %d", sc.Name, len(sc.Events), b.MaxEvents)
	}
	for i, ev := range sc.Events {
		r := ev.Rule
		where := fmt.Sprintf("censor: scenario %q event %d (%s)", sc.Name, i, r.Name)
		if ev.At < 0 || ev.At > b.MaxAt {
			return fmt.Errorf("%s: activation %v outside [0, %v]", where, ev.At, b.MaxAt)
		}
		if ev.Duration < 0 || ev.Duration > b.MaxDuration {
			return fmt.Errorf("%s: duration %v outside [0, %v]", where, ev.Duration, b.MaxDuration)
		}
		if r.RateBps != 0 && (r.RateBps < b.RateBps[0] || r.RateBps > b.RateBps[1]) {
			return fmt.Errorf("%s: rate %.0f B/s outside [%.0f, %.0f]", where, r.RateBps, b.RateBps[0], b.RateBps[1])
		}
		if r.ExtraDelay < 0 || r.ExtraDelay > b.MaxExtraDelay {
			return fmt.Errorf("%s: extra delay %v outside [0, %v]", where, r.ExtraDelay, b.MaxExtraDelay)
		}
		if r.Jitter < 0 || r.Jitter > b.MaxJitter {
			return fmt.Errorf("%s: jitter %v outside [0, %v]", where, r.Jitter, b.MaxJitter)
		}
		if r.Loss < 0 || r.Loss > b.MaxLoss {
			return fmt.Errorf("%s: loss %.3f outside [0, %.3f]", where, r.Loss, b.MaxLoss)
		}
		if r.ResetProb < 0 || r.ResetProb > b.MaxResetProb {
			return fmt.Errorf("%s: reset prob %.3f outside [0, %.3f]", where, r.ResetProb, b.MaxResetProb)
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
// uniform inside the bounds. Equal seeds always produce the identical
// scenario; the result always passes b.Validate (composition is capped
// at MaxEvents).
func RandomScenario(seed int64, b Bounds) Scenario {
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
		if max <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(max) + 1))
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		ev := Event{At: dur(b.MaxAt)}
		// Half the windows are finite, half run to the end of the world.
		if rng.Intn(2) == 0 {
			ev.Duration = dur(b.MaxDuration)
		}
		r := Rule{
			Name:  fmt.Sprintf("random-rule-%d", i),
			Match: Match{Via: client, Hosts: randomHostPatterns[rng.Intn(len(randomHostPatterns))]},
		}
		switch rng.Intn(5) {
		case 0:
			r.RateBps = b.RateBps[0] + float64(rng.Float64()*(b.RateBps[1]-b.RateBps[0]))
			r.ExtraDelay = dur(b.MaxExtraDelay)
		case 1:
			r.Loss = rng.Float64() * b.MaxLoss
			r.Jitter = dur(b.MaxJitter)
		case 2:
			r.ExtraDelay = dur(b.MaxExtraDelay)
			r.Jitter = dur(b.MaxJitter)
		case 3:
			r.ResetProb = rng.Float64() * b.MaxResetProb
		case 4:
			r.Block = true
		}
		ev.Rule = r
		sc.Events = append(sc.Events, ev)
	}
	if b.MaxEvents > 0 && len(sc.Events) > b.MaxEvents {
		sc.Events = sc.Events[:b.MaxEvents]
	}
	return sc
}
