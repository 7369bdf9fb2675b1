package simtest

import (
	"fmt"
	"strings"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
	"ptperf/internal/stats"
)

// This file is the invariant suite: every checker is a cross-cutting
// property that must hold for EVERY world, whatever transports,
// interference and topology it drew. A violation is a bug in the
// simulation substrate (or a deliberately injected fault), never an
// acceptable outcome of an adversarial scenario — scenarios are allowed
// to fail every page load, but they are not allowed to lose bytes,
// miscount interference, leak goroutines, or render differently on a
// second identical run.

// leakTolerance absorbs benign cross-sample wobble in the steady-state
// leak checks: timer-driven endpoint churn (the snowflake volunteer
// pool replaces proxies on exponential lifetimes) can catch the two
// quiescent samples at slightly different pool states. That wobble
// belongs to a live world and has nothing to do with teardown: the
// check after Close (closed-world-empty) is exact.
const (
	leakGoroutineTolerance = 4
	leakConnTolerance      = 8
)

// invariant is one named cross-cutting property of a world outcome.
type invariant struct {
	name  string
	check func(*Outcome) error
}

// invariants lists the suite in the order violations are reported.
// Determinism (same seed ⇒ byte-identical report) is checked by
// Check itself, which needs two outcomes.
var invariants = []invariant{
	{"scenario-bounds", checkScenarioBounds},
	{"report-shape", checkReportShape},
	{"clock-monotonic", checkClockMonotonic},
	{"byte-conservation", checkByteConservation},
	{"cell-conservation", checkCellConservation},
	{"censor-accounting", checkCensorAccounting},
	{"recovery-accounting", checkRecoveryAccounting},
	{"fault-survivors", checkFaultSurvivors},
	{"no-leaks", checkNoLeaks},
	{"timeline-conservation", checkTimelineConservation},
	{"closed-world-empty", checkClosedWorldEmpty},
}

// checkScenarioBounds re-validates the world's generated scenario
// against the paper-scale envelope: the generator and the shrinker must
// never emit a rule outside it.
func checkScenarioBounds(o *Outcome) error {
	return censor.Validate(o.Spec.Scenario)
}

// checkReportShape is the sanity oracle over the measured data: counts
// consistent with the campaign size, times within [0, timeout], box
// statistics ordered, ok/failed counts consistent with the campaign
// size.
func checkReportShape(o *Outcome) error {
	// Methods holds the main pass only (the steady-state pass discards
	// its results): Sites sites from each of the two catalogs, Repeats
	// accesses each.
	want := 2 * o.Spec.Sites * o.Spec.Repeats
	for _, name := range o.orderedMethods() {
		m, ok := o.Methods[name]
		if !ok {
			return fmt.Errorf("method %s missing from results", name)
		}
		if len(m.Times) != want {
			return fmt.Errorf("%s: %d measurements, want %d", name, len(m.Times), want)
		}
		if m.OK < 0 || m.Failed < 0 || m.OK+m.Failed != len(m.Times) {
			return fmt.Errorf("%s: ok=%d + failed=%d inconsistent with %d measurements", name, m.OK, m.Failed, len(m.Times))
		}
		for _, t := range m.Times {
			if t < 0 || t > pageTimeout.Seconds() {
				return fmt.Errorf("%s: access time %.3fs outside [0, %.0fs]", name, t, pageTimeout.Seconds())
			}
		}
		box := stats.Summarize(m.Times)
		if !(box.Min <= box.Q1 && box.Q1 <= box.Median && box.Median <= box.Q3 && box.Q3 <= box.Max) {
			return fmt.Errorf("%s: box statistics unordered: %+v", name, box)
		}
	}
	return nil
}

// checkClockMonotonic surfaces any backwards virtual-time observation
// made while measuring; the final elapsed time must also be positive
// (a campaign that consumed no virtual time measured nothing).
func checkClockMonotonic(o *Outcome) error {
	if o.ClockErr != nil {
		return o.ClockErr
	}
	if o.Elapsed <= 0 {
		return fmt.Errorf("campaign consumed no virtual time (elapsed %v)", o.Elapsed)
	}
	return nil
}

// checkByteConservation audits the netem accounting equation: every
// byte written into the network was delivered, dropped at a reader
// close, or is still buffered (summed independently from the live
// pipes).
func checkByteConservation(o *Outcome) error {
	if err := o.Acct.ConservationErr(); err != nil {
		return err
	}
	if o.Acct.SegmentsSent == 0 || o.Acct.BytesSent == 0 {
		return fmt.Errorf("campaign moved no bytes (%d segments)", o.Acct.SegmentsSent)
	}
	return nil
}

// checkCellConservation audits the relay cell scheduler: the final
// snapshot is taken after the drain sleep, when every circuit has been
// parked and torn down, so each cell that entered a per-circuit output
// queue must have been flushed to its link or dropped at teardown —
// none may linger in (or vanish from) a queue. Delivered bytes alone
// don't imply scheduled cells (PT handshakes and broker traffic can
// move bytes while every circuit dies before its first relay cell),
// but a *successful page access* cannot happen without backward DATA
// cells through the relays — so any OK access requires cells.
func checkCellConservation(o *Outcome) error {
	if err := o.Acct.CellConservationErr(); err != nil {
		return err
	}
	anyOK := false
	//simlint:allow maprange -- existence scan: ORs one boolean over the values, which commutes.
	for _, m := range o.Methods {
		if m.OK > 0 {
			anyOK = true
			break
		}
	}
	if anyOK && o.Acct.CellsQueued == 0 {
		return fmt.Errorf("campaign completed accesses but no relay cells were scheduled")
	}
	return nil
}

// checkCensorAccounting cross-checks the censor's interference counters
// against the link layer's: the censor cannot have throttled, reset or
// lost more segments than the network consulted it on, and every
// refused dial must be one the network actually refused.
func checkCensorAccounting(o *Outcome) error {
	st, a := o.Censor, o.Acct
	if int64(st.ThrottledSegments) > a.SegmentsFiltered {
		return fmt.Errorf("censor throttled %d segments but only %d were filtered", st.ThrottledSegments, a.SegmentsFiltered)
	}
	if int64(st.Resets) > a.SegmentsFiltered {
		return fmt.Errorf("censor reset %d segments but only %d were filtered", st.Resets, a.SegmentsFiltered)
	}
	// Each loss rule can charge at most one event per filtered segment;
	// with no loss rules the only correct count is zero.
	lossRules := 0
	for _, ev := range o.Spec.Scenario.Events {
		if ev.Rule.Loss > 0 {
			lossRules++
		}
	}
	if int64(st.LossEvents) > a.SegmentsFiltered*int64(lossRules) {
		return fmt.Errorf("censor counted %d loss events over %d filtered segments (%d loss rules)",
			st.LossEvents, a.SegmentsFiltered, lossRules)
	}
	if int64(st.BlockedDials) != a.DialsRefused {
		return fmt.Errorf("censor blocked %d dials but the network refused %d", st.BlockedDials, a.DialsRefused)
	}
	if int64(st.FlowsCut) > a.ConnsOpened {
		return fmt.Errorf("censor cut %d flows but only %d conn endpoints ever opened", st.FlowsCut, a.ConnsOpened)
	}
	for _, n := range []int{st.BlockedDials, st.FlowsCut, st.Resets, st.LossEvents, st.ThrottledSegments} {
		if n < 0 {
			return fmt.Errorf("negative censor counter: %+v", st)
		}
	}
	return nil
}

// checkRecoveryAccounting cross-checks every method's recovery
// counters: each counter must be non-negative, and a client can never
// have re-attached more streams than it saw fail — every re-attach is
// the response to one observed stream failure.
func checkRecoveryAccounting(o *Outcome) error {
	for _, name := range o.orderedMethods() {
		r := o.Recovery[name]
		// A slice, not a map: with several negative counters the error
		// must name the same one on every run.
		for _, c := range []struct {
			label string
			n     int64
		}{
			{"rebuilds", r.Rebuilds}, {"build-timeouts", r.BuildTimeouts},
			{"stream-failures", r.StreamFailures}, {"re-attaches", r.ReAttaches},
			{"abandoned", r.Abandoned}, {"guard-probations", r.GuardProbations},
		} {
			if c.n < 0 {
				return fmt.Errorf("%s: negative recovery counter %s=%d", name, c.label, c.n)
			}
		}
		if r.ReAttaches > r.StreamFailures {
			return fmt.Errorf("%s: %d stream re-attaches exceed %d observed stream failures", name, r.ReAttaches, r.StreamFailures)
		}
	}
	return nil
}

// checkFaultSurvivors audits the fault injector's blast radius: at the
// final quiescent point, no conn endpoint may still be open on a host
// that is down (a permanently crashed relay, a link still flapped
// down). The injector aborts every conn touching the host when the
// fault fires, and dials to or from a down host must fail — a survivor
// means some path dodged both, i.e. a flow outlived its host.
func checkFaultSurvivors(o *Outcome) error {
	if len(o.DownHosts) == 0 {
		return nil
	}
	down := make(map[string]bool, len(o.DownHosts))
	for _, h := range o.DownHosts {
		down[h] = true
	}
	host := func(endpoint string) string {
		if i := strings.LastIndex(endpoint, ":"); i >= 0 {
			return endpoint[:i]
		}
		return endpoint
	}
	for _, addr := range o.OpenConnAddrs {
		local, remote, ok := strings.Cut(addr, "→")
		if !ok {
			return fmt.Errorf("unparseable open-conn endpoint %q", addr)
		}
		if down[host(local)] || down[host(remote)] {
			return fmt.Errorf("conn %s still open although host(s) down: %v", addr, o.DownHosts)
		}
	}
	return nil
}

// checkNoLeaks compares the two quiescent samples: the steady-state
// second pass must not have grown the world's goroutine or open-conn
// population beyond churn tolerance — growth there means some per-access
// resource survives its access. Close cannot stand in for this check: it
// would stop the leaked goroutine with all the others. What it adds is
// the suspects' names: the goroutines it found parked that were spawned
// no earlier than the first sample.
func checkNoLeaks(o *Outcome) error {
	if d := o.Registered[1] - o.Registered[0]; d > leakGoroutineTolerance {
		var grown []netem.Parked
		for _, p := range o.Parked {
			if p.Born >= o.FirstSample {
				grown = append(grown, p)
			}
		}
		return fmt.Errorf("goroutine leak: %d registered after steady-state pass vs %d after campaign (+%d > %d); spawned at or after the first sample (t=%v) and still parked at the end:\n%s",
			o.Registered[1], o.Registered[0], d, leakGoroutineTolerance, o.FirstSample, netem.FormatParked(grown))
	}
	if d := o.OpenConns[1] - o.OpenConns[0]; d > leakConnTolerance {
		return fmt.Errorf("conn leak: %d open endpoints after steady-state pass vs %d after campaign (+%d > %d)",
			o.OpenConns[1], o.OpenConns[0], d, leakConnTolerance)
	}
	return nil
}

// checkTimelineConservation audits the observability layer against the
// accounting it samples: the recorder closed at the same quiescent
// instant the final Acct snapshot was taken, so re-summing the
// timeline's interval deltas must reconstruct every monotone counter of
// that snapshot exactly — a mismatch means the sampler lost or invented
// a delta. Clamp regressions mean a counter surface moved backwards
// mid-campaign, which monotone counters never may.
func checkTimelineConservation(o *Outcome) error {
	tl := o.Timeline
	if tl == nil {
		return fmt.Errorf("world ran without a metric timeline")
	}
	if tl.Regressions != 0 {
		return fmt.Errorf("%d clamped counter regressions while sampling", tl.Regressions)
	}
	got, want := tl.AcctTotals(), o.Acct
	// BytesBuffered is a gauge: the totals carry the last sampled value,
	// which is the final snapshot's by construction; comparing the whole
	// struct therefore covers it too.
	if got != want {
		return fmt.Errorf("timeline totals diverge from final snapshot:\n  totals   %+v\n  snapshot %+v", got, want)
	}
	return nil
}

// checkClosedWorldEmpty audits teardown: once Close has run, the world's
// clock counts the driver and nobody else, no conn endpoint is open, and
// every node the world's queue lists handed out (pipe segments, relay
// cells) is back on its list. There is no tolerance: whatever the world
// was doing, its end is the same.
func checkClosedWorldEmpty(o *Outcome) error {
	if o.Closed.Registered != 1 {
		return fmt.Errorf("%d goroutines registered after Close, want 1 (the driver)", o.Closed.Registered)
	}
	if o.Closed.OpenConns != 0 {
		return fmt.Errorf("%d conn endpoints open after Close", o.Closed.OpenConns)
	}
	if o.Closed.NodesOut != 0 {
		return fmt.Errorf("%d queue nodes not back on their lists after Close", o.Closed.NodesOut)
	}
	for _, class := range wholeLeaseClasses {
		if n := o.Closed.LeasesOut[class]; n != 0 {
			return fmt.Errorf("%d %s buffers still leased after Close", n, class)
		}
	}
	return nil
}

// wholeLeaseClasses are the buffer classes whose every lease is back
// once a world has closed. The others keep a residue that Close cannot
// reach: the cells of a PT link's flusher and of an EXTEND's CREATED
// read, the chunks of a pt.Stream's unsent bytes that nothing takes, and
// a FrameConn's arrays while a frame is partly in or a frame it built
// waits for its write.
var wholeLeaseClasses = []string{"small", "pump", "segment"}

// Check is the fuzzer's per-world verdict: build and run the world,
// apply every invariant, and — only if those pass — run the world a
// second time and require a byte-identical report (same-seed
// determinism, which also subsumes wall-clock reads: real time cannot
// repeat). The returned error carries the violated invariant's name.
func Check(spec Spec) error {
	_, err := checkSpec(spec)
	return err
}

// checkSpec implements Check and additionally returns the first run's
// canonical report (Fuzz hashes it into the run digest).
func checkSpec(spec Spec) (string, error) {
	a, err := Run(spec)
	if err != nil {
		return "", fmt.Errorf("invariant world-build: %w", err)
	}
	for _, inv := range invariants {
		if err := inv.check(a); err != nil {
			return a.Report, fmt.Errorf("invariant %s: %s: %w", inv.name, spec.ID(), err)
		}
	}
	b, err := Run(spec)
	if err != nil {
		return a.Report, fmt.Errorf("invariant world-build (second run): %w", err)
	}
	if a.Report != b.Report {
		return a.Report, fmt.Errorf("invariant determinism: %s: same seed produced different reports:\n--- first ---\n%s--- second ---\n%s",
			spec.ID(), a.Report, b.Report)
	}
	return a.Report, nil
}
