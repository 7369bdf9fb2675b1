// Package simtest is the simulation-torture subsystem: a property-based
// fuzzer that generates randomized measurement worlds — a random
// transport subset, a random composed censor scenario, random topology
// knobs — and runs each one under a suite of cross-cutting invariant
// checkers (same-seed determinism, byte conservation across netem
// pipes, censor counter accounting, virtual-clock monotonicity, leak
// steady-state, report-shape sanity). It is the FoundationDB-style
// answer to a question every PR otherwise hand-waves: the determinism
// and accounting contracts hold not just on the ~30 fixed worlds the
// unit tests pin, but across thousands of points of the
// {transport} × {scenario} × {topology} space.
//
// On a failure the fuzzer shrinks the world — bisect the transport
// subset, drop scenario rules, halve sites and repeats — to a minimal
// reproduction, and emits a one-line repro seed. Repro lines of past
// failures are committed to testdata/corpus and replayed by
// TestCorpusSeeds, so every fixed bug stays fixed.
//
// Entry points: Generate derives a world spec from a seeded splitmix64
// stream, Check runs one spec under the full invariant suite, Fuzz
// drives N specs across the shard executor, and `ptperf fuzz` is the
// CLI face.
package simtest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/faults"
	"ptperf/internal/fetch"
	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/obs"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// pageTimeout mirrors the harness's 120 s page timeout; a failed access
// is recorded as this duration, like the paper's campaigns did.
const pageTimeout = 120 * time.Second

// drainTime is the virtual settle time after parking a campaign:
// in-flight segments arrive, loss penalties resolve, per-conn
// goroutines observe their closes and exit, and the polling tunnels'
// idle-session reapers (120 s staleness, checked on a 120 s cadence, so
// worst-case ~240 s after the last poll) cut abandoned sessions.
// Virtual seconds are nearly free: the clock jumps straight across
// quiet stretches.
const drainTime = 300 * time.Second

// streamWorld is the seed-stream id simtest draws worlds from; it is
// far from the harness's experiment streams so a fuzz run never
// accidentally rebuilds a unit-test world.
const streamWorld = 9000

// Spec is one generated world: everything a fuzz case needs to rebuild
// it exactly. A Spec is a pure function of (Root, Index) until the
// shrinker trims Transports, Scenario events, Faults, Sites or Repeats
// — those overrides are what the repro line records.
type Spec struct {
	// Root is the fuzz run's root seed; Index the world's position in
	// the run. Together they derive every random draw below.
	Root, Index int64
	// Transports is the measured method subset ("tor" plus PT names).
	Transports []string
	// Scenario is the composed censor scenario the world runs under.
	Scenario censor.Scenario
	// EventIdx maps Scenario.Events back to the generated scenario's
	// event indices (repro-line provenance across shrinks).
	EventIdx []int
	// Faults is the world's fault-injection plan (relay crashes, link
	// flaps, directory churn against the volunteer fleet); empty leaves
	// the infrastructure immortal. FaultIdx maps the events back to the
	// generated plan's indices (repro-line provenance across shrinks).
	Faults   []faults.Event
	FaultIdx []int
	// Sites is the number of sites measured per catalog; Repeats the
	// accesses per site.
	Sites, Repeats int
	// ByteScale is the world's byte-quantity scale.
	ByteScale float64
	// Location is the client city; Medium its access medium.
	Location geo.Location
	// Medium is the client's access medium (wired or wireless).
	Medium geo.Medium
	// Guards, Middles, Exits size the volunteer relay fleet.
	Guards, Middles, Exits int
}

// Seed derives the world seed for this spec's testbed; shrinking leaves
// it untouched so a shrunken world keeps the original's topology draws.
func (s Spec) Seed() int64 {
	return sim.DeriveSeed(s.Root, streamWorld, s.Index, 2)
}

// ID is the spec's short human-readable identity in logs.
func (s Spec) ID() string {
	return fmt.Sprintf("world %d/%#x (%d transports, %d rules, %d faults, %d sites × %d)",
		s.Index, uint64(s.Root), len(s.Transports), len(s.Scenario.Events), len(s.Faults), s.Sites, s.Repeats)
}

// normalize maps empty slices to nil so specs compare canonically
// (reflect.DeepEqual in tests) however they were produced — generated,
// shrunk, or decoded from a repro line.
func (s *Spec) normalize() {
	if len(s.Transports) == 0 {
		s.Transports = nil
	}
	if len(s.Scenario.Events) == 0 {
		s.Scenario.Events = nil
	}
	if len(s.Scenario.Phases) == 0 {
		s.Scenario.Phases = nil
	}
	if len(s.EventIdx) == 0 {
		s.EventIdx = nil
	}
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
	if len(s.FaultIdx) == 0 {
		s.FaultIdx = nil
	}
}

// Generate derives world Index of a fuzz run rooted at seed root. Equal
// (root, index) pairs always generate the identical spec; neighbouring
// indices draw from independent splitmix64 streams.
func Generate(root, index int64) Spec {
	//simlint:allow seededrand -- decides which world to build, once per world: the persisted simtest-v1 repro lines mean math/rand's draws
	rng := rand.New(rand.NewSource(sim.DeriveSeed(root, streamWorld, index, 0)))
	s := Spec{Root: root, Index: index}

	// Random transport subset: 1–3 methods from tor plus the catalog.
	all := append([]string{"tor"}, pt.Names()...)
	n := 1 + rng.Intn(3)
	for _, k := range rng.Perm(len(all))[:n] {
		s.Transports = append(s.Transports, all[k])
	}
	sort.Strings(s.Transports)

	// Random composed scenario within paper-scale bounds.
	s.Scenario = censor.RandomScenario(sim.DeriveSeed(root, streamWorld, index, 1), censor.PaperBounds())
	s.EventIdx = make([]int, len(s.Scenario.Events))
	for i := range s.EventIdx {
		s.EventIdx[i] = i
	}

	// Random topology knobs.
	s.Sites = 1 + rng.Intn(2)
	s.Repeats = 1 + rng.Intn(2)
	s.ByteScale = 0.04 + float64(rng.Float64()*0.04)
	s.Location = geo.Clients[rng.Intn(len(geo.Clients))]
	if rng.Intn(4) == 0 {
		s.Medium = geo.Wireless
	}
	s.Guards = 2 + rng.Intn(3)
	s.Middles = 2 + rng.Intn(3)
	s.Exits = 2 + rng.Intn(3)

	// Random fault plan against the volunteer fleet, from its own seed
	// stream so adding fault injection never perturbed the draws above
	// (old corpus lines still rebuild their exact worlds). Roughly half
	// the worlds stay fault-free — the substrate must hold with and
	// without infrastructure failure.
	//simlint:allow seededrand -- as rng above: corpus lines rebuild their worlds from these draws
	frng := rand.New(rand.NewSource(sim.DeriveSeed(root, streamWorld, index, 3)))
	if frng.Intn(2) == 0 {
		n := 1 + frng.Intn(4)
		for i := 0; i < n; i++ {
			ev := faults.Event{
				Kind: faults.Kind(frng.Intn(3)),
				At:   5*time.Second + time.Duration(frng.Int63n(int64(395*time.Second))),
			}
			// Targets are volunteer relays only: they run on dedicated
			// same-named hosts, so a relay crash is a host crash and the
			// fault-survivor invariant stays exact.
			switch frng.Intn(3) {
			case 0:
				ev.Target = fmt.Sprintf("guard-%d", frng.Intn(s.Guards))
			case 1:
				ev.Target = fmt.Sprintf("middle-%d", frng.Intn(s.Middles))
			case 2:
				ev.Target = fmt.Sprintf("exit-%d", frng.Intn(s.Exits))
			}
			// A quarter of the failures are permanent (no restart, no
			// link-up, no rejoin); the rest recover after 5–65 s.
			if frng.Intn(4) > 0 {
				ev.Duration = 5*time.Second + time.Duration(frng.Int63n(int64(60*time.Second)))
			}
			s.Faults = append(s.Faults, ev)
			s.FaultIdx = append(s.FaultIdx, i)
		}
	}
	s.normalize()
	return s
}

// methodResult is one transport's raw outcomes in one world.
type methodResult struct {
	Name   string
	Times  []float64 // one entry per site access, timeouts included
	OK     int
	Failed int
}

// Outcome is everything one world run exposes to the invariant
// checkers: the canonical report (the determinism comparand), the raw
// per-method data, the censor and netem accounting, and the leak
// samples taken at the two quiescent points.
type Outcome struct {
	Spec    Spec
	Report  string
	Methods map[string]*methodResult
	Censor  censor.Stats
	Acct    netem.AcctSnapshot
	// Recovery holds each method's client-side recovery counters at
	// campaign end (always populated, zero when nothing failed).
	Recovery map[string]tor.RecoveryStats
	// Faults counts the fault injector's transitions; DownHosts lists
	// hosts still failed at the final quiescent point; OpenConnAddrs the
	// conn endpoints still open there (the fault-survivor comparand).
	Faults        faults.Stats
	DownHosts     []string
	OpenConnAddrs []string
	// Timeline is the world's metric timeline, sampled every virtual
	// second from build to the final quiescent point. Its totals must
	// reconstruct Acct (the timeline-conservation invariant).
	Timeline *obs.Timeline
	// Elapsed is the world's final virtual time.
	Elapsed time.Duration
	// Registered and OpenConns sample live goroutines / conn endpoints
	// after the main campaign drain [0] and after the steady-state
	// second pass drain [1]: growth between them is a per-campaign leak.
	// FirstSample is the virtual instant of sample [0].
	Registered  [2]int
	OpenConns   [2]int64
	FirstSample time.Duration
	// Parked lists the goroutines Close found parked and on what; those
	// spawned after FirstSample are what a leak report names. Closed is
	// the same pair of counts once more, after Close, with the queue
	// nodes the world's lists have not got back and the buffers of each
	// class (netem.BufClass, by name) leased and not returned: the
	// driver alone, no open conn, no node out and no lease of a class
	// that comes back whole (the closed-world-empty comparand).
	Parked []netem.Parked
	Closed struct {
		Registered int
		OpenConns  int64
		NodesOut   int
		LeasesOut  map[string]int
	}
	// ClockErr records a virtual-clock monotonicity violation observed
	// while measuring.
	ClockErr error
}

// Run builds the spec's world and executes its measurement campaign on
// the calling goroutine (which becomes the world's scheduler driver,
// per the sim task contract), then closes the world: teardown comes
// after the report is rendered, so it cannot reach the determinism
// comparand. The returned error covers world construction only;
// invariant verdicts live in the Outcome.
func Run(spec Spec) (*Outcome, error) {
	sc := spec.Scenario
	var fp *faults.Plan
	if len(spec.Faults) > 0 {
		fp = &faults.Plan{Name: "fuzz", Events: spec.Faults}
	}
	w, err := testbed.New(testbed.Options{
		Seed:           spec.Seed(),
		ByteScale:      spec.ByteScale,
		ClientLocation: spec.Location,
		Medium:         spec.Medium,
		Guards:         spec.Guards,
		Middles:        spec.Middles,
		Exits:          spec.Exits,
		TrancoN:        spec.Sites,
		CBLN:           spec.Sites,
		ScenarioSpec:   &sc,
		FaultSpec:      fp,
	})
	if err != nil {
		return nil, fmt.Errorf("simtest: build %s: %w", spec.ID(), err)
	}
	defer w.Close() // a campaign that panics ends its world too
	out := &Outcome{Spec: spec}
	clock := w.Net.Clock()

	// The metric recorder samples every fuzzed world, so every world
	// checks the timeline-conservation invariant. Its samples are clock
	// events that register no goroutine, so the leak samples below count
	// the campaign's goroutines alone.
	rec := obs.Attach(w, obs.DefaultInterval)

	out.Methods = measure(w, spec, spec.Repeats, &out.ClockErr)
	park(w, spec)
	clock.Sleep(drainTime)
	out.Registered[0] = clock.Registered()
	out.OpenConns[0] = w.Net.Acct().Snapshot().OpenConns()
	out.FirstSample = clock.Now()

	// Steady-state second pass: one access per method. A campaign that
	// leaks goroutines or flows per access grows between the two
	// samples; the world's standing infrastructure (parked tunnels,
	// proxy pools) is present in both and cancels out.
	measure(w, spec, 1, &out.ClockErr)
	park(w, spec)
	clock.Sleep(drainTime)
	out.Registered[1] = clock.Registered()
	out.Acct = w.Net.Acct().Snapshot()
	out.OpenConns[1] = out.Acct.OpenConns()
	// Close at the final quiescent point: no virtual time passes between
	// the Acct snapshot above and the recorder's final sample, so the
	// timeline's totals must reconstruct out.Acct exactly.
	out.Timeline = rec.Close()

	if w.Censor != nil {
		out.Censor = w.Censor.Stats()
	}
	// The fault-survivor comparands, sampled at the same quiescent point
	// as the final accounting snapshot above.
	out.OpenConnAddrs = w.Net.Acct().OpenConnAddrs()
	if w.Faults != nil {
		out.Faults = w.Faults.Stats()
		out.DownHosts = w.Faults.DownHosts()
	}
	out.Recovery = make(map[string]tor.RecoveryStats, len(spec.Transports))
	for _, name := range spec.Transports {
		if d, err := w.Deployment(name); err == nil {
			out.Recovery[name] = d.Recovery()
		} else {
			out.Recovery[name] = tor.RecoveryStats{}
		}
	}
	out.Elapsed = clock.Now()
	out.Report = render(out)

	out.Parked = clock.ShutdownListing()
	w.Close()
	out.Closed.Registered = clock.Registered()
	out.Closed.OpenConns = w.Net.Acct().Snapshot().OpenConns()
	out.Closed.NodesOut = w.Net.Acct().NodesOut()
	out.Closed.LeasesOut = map[string]int{}
	for _, b := range netem.BufClasses() {
		out.Closed.LeasesOut[b.Name()] = b.Out(clock)
	}
	return out, nil
}

// measure runs one access pass: every transport fetches every site
// `repeats` times, transports in parallel (testbed.ForEachMethod).
// Results are keyed by method; a monotonicity violation is written to
// clockErr.
func measure(w *testbed.World, spec Spec, repeats int, clockErr *error) map[string]*methodResult {
	clock := w.Net.Clock()
	type site struct{ path string }
	var sites []site
	for i := 0; i < spec.Sites && i < len(w.Tranco.Sites); i++ {
		sites = append(sites, site{w.Tranco.Sites[i].Path})
	}
	for i := 0; i < spec.Sites && i < len(w.CBL.Sites); i++ {
		sites = append(sites, site{w.CBL.Sites[i].Path})
	}

	// The methods' goroutines run one at a time, so clockErr needs no
	// lock. A method records its failures and returns no error.
	out, _ := testbed.ForEachMethod(w, spec.Transports, false, func(name string) (*methodResult, error) {
		res := &methodResult{Name: name}
		last := clock.Now()
		record := func(sec float64, ok bool) {
			res.Times = append(res.Times, sec)
			if ok {
				res.OK++
			} else {
				res.Failed++
			}
			if now := clock.Now(); now < last {
				if *clockErr == nil {
					*clockErr = fmt.Errorf("virtual clock moved backwards: %v after %v", now, last)
				}
			} else {
				last = now
			}
		}
		d, err := w.Deployment(name)
		if err != nil {
			// A deployment that cannot build records every access
			// as a timeout — the campaign shape stays intact.
			for i := 0; i < len(sites)*repeats; i++ {
				record(pageTimeout.Seconds(), false)
			}
			return res, nil
		}
		// A failed preheat is not fatal: under blocking scenarios
		// the accesses themselves record the failure.
		_ = d.Preheat()
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
		for _, st := range sites {
			for rep := 0; rep < repeats; rep++ {
				got := c.Get(w.Origin.Addr(), st.path, false)
				if got.Err != nil || !got.Complete() {
					record(pageTimeout.Seconds(), false)
					continue
				}
				record(got.Total.Seconds(), true)
			}
		}
		return res, nil
	})
	return out
}

// park discards every deployment's circuit state so polling tunnels
// stop generating events and per-circuit goroutines can exit.
func park(w *testbed.World, spec Spec) {
	for _, name := range spec.Transports {
		if d, err := w.Deployment(name); err == nil {
			d.FreshCircuit()
		}
	}
}

// render produces the canonical report: a deterministic, byte-stable
// text rendering of everything the world measured. Two runs of the same
// spec must render identically — this string is the determinism
// invariant's comparand.
func render(o *Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "simtest %s scenario=%s elapsed=%v\n", o.Spec.ID(), o.Spec.Scenario.Name, o.Elapsed)
	for _, name := range o.orderedMethods() {
		m := o.Methods[name]
		box := stats.Summarize(m.Times)
		fmt.Fprintf(&b, "  %-12s ok=%d failed=%d min=%.4f med=%.4f max=%.4f", name, m.OK, m.Failed, box.Min, box.Median, box.Max)
		for _, t := range m.Times {
			fmt.Fprintf(&b, " %.6f", t)
		}
		b.WriteByte('\n')
	}
	st := o.Censor
	fmt.Fprintf(&b, "  censor blocked=%d cut=%d resets=%d loss=%d throttled=%d\n",
		st.BlockedDials, st.FlowsCut, st.Resets, st.LossEvents, st.ThrottledSegments)
	a := o.Acct
	fmt.Fprintf(&b, "  acct dials=%d refused=%d conns=%d/%d segs=%d filtered=%d bytes=%d/%d/%d/%d cells=%d/%d/%d\n",
		a.Dials, a.DialsRefused, a.ConnsOpened, a.ConnsClosed, a.SegmentsSent, a.SegmentsFiltered,
		a.BytesSent, a.BytesDelivered, a.BytesDropped, a.BytesBuffered,
		a.CellsQueued, a.CellsFlushed, a.CellsDropped)
	// Recovery and fault lines are emitted for every world — fault-free
	// ones included — so the report shape is uniform and the counters are
	// part of the determinism comparand.
	for _, name := range o.orderedMethods() {
		r := o.Recovery[name]
		fmt.Fprintf(&b, "  recovery %-12s rebuilds=%d timeouts=%d streamfails=%d reattach=%d abandoned=%d probation=%d\n",
			name, r.Rebuilds, r.BuildTimeouts, r.StreamFailures, r.ReAttaches, r.Abandoned, r.GuardProbations)
	}
	fs := o.Faults
	fmt.Fprintf(&b, "  faults crashes=%d restarts=%d flapsdown=%d flapsup=%d withdrawn=%d rejoined=%d skipped=%d down=%s\n",
		fs.Crashes, fs.Restarts, fs.FlapsDown, fs.FlapsUp, fs.Withdrawn, fs.Rejoined, fs.Skipped,
		strings.Join(o.DownHosts, ","))
	// The timeline line folds the metric layer into the determinism
	// comparand: sample count, clamp regressions and the Prometheus
	// rendering's digest must all be a pure function of the spec.
	if tl := o.Timeline; tl != nil {
		fmt.Fprintf(&b, "  timeline samples=%d regressions=%d digest=%s\n",
			len(tl.Samples), tl.Regressions, tl.Digest())
	}
	return b.String()
}

// orderedMethods returns the spec's transports sorted (map-iteration
// independence for the canonical report).
func (o *Outcome) orderedMethods() []string {
	out := append([]string(nil), o.Spec.Transports...)
	sort.Strings(out)
	return out
}
