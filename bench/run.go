package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"ptperf/internal/sim"
)

const (
	// watchdog bounds one child; a child that outlives it is killed and
	// counts as a failed iteration.
	watchdog = 60 * time.Second
	// setupRounds is how many times a run sets up, so that setup_s is a
	// median and not one reading.
	setupRounds = 3
	// referenceIters is how many untraced iterations the traced run
	// makes to have a wall time to compare the traced one against.
	referenceIters = 3
	// outDir receives caches, profiles and span files. It is relative
	// to the working directory, which run.sh makes the checkout root.
	outDir = "bench/out"
)

// metricValue is one reported number. Q1, Q3 and N describe the samples
// behind a median and are zero for a single reading.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload: what the last line of standard
// output carries, plus what `suite` keeps for `compare`.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// ReportSHA is the SHA-256 of campaign 0's report: the bytes a
	// parent and a change must agree on at one seed.
	ReportSHA string                 `json:"report_sha256"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Host holds, for an untraced run, what the three times read before
	// the host corrections and the two readings they were corrected by
	// (hostReadings), so that `compare` can show both.
	Host map[string]metricValue `json:"host,omitempty"`
}

// hostReadings are the uncorrected times of an untraced run and the
// state of the host it ran on, reported beside the end-to-end metrics.
var hostReadings = []metric{
	{name: "raw_setup_s", unit: "s", better: "lower"},
	{name: "raw_wall_s", unit: "s", better: "lower"},
	{name: "raw_cpu_s", unit: "s", better: "lower"},
	{name: "stolen_s", unit: "s", better: "lower"},
	{name: "slowdown", unit: "ratio", better: "lower"},
}

// driver runs one workload's children, one at a time.
//
// The run's inputs are a list of campaigns: campaign i is the
// workload's config at seed DeriveSeed(-seed, i). A campaign's cost
// depends on what its seed draws (site sizes, relay rates, paths) far
// more than on host noise, so an untraced run measures a fixed number
// of different campaigns (workload.campaigns) and reports medians over
// them; the same -seed always gives the same list.
type driver struct {
	exe  string
	w    workload
	seed int64
	log  io.Writer

	res result
	// shas holds the report SHA-256 first seen for each campaign: a
	// campaign that runs again must print the same bytes.
	shas map[int]string
	// allocs holds the probes' allocations per operation.
	allocs map[string]float64
}

func newDriver(w workload, seed int64, trace int, log io.Writer) (*driver, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &driver{exe: exe, w: w, seed: seed, log: log, shas: map[int]string{},
		res: result{Workload: w.name, Seed: seed, Trace: trace, Metrics: map[string]metricValue{}}}, nil
}

// child runs the benchmark binary as one fresh child process under the
// watchdog and decodes the JSON line it prints into v.
func (d *driver) child(v any, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), watchdog)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.exe, append([]string{"-child", "-workload", d.w.name}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return fmt.Errorf("child exceeded the %v watchdog", watchdog)
	}
	if err != nil {
		return fmt.Errorf("child: %w: %s", err, lastLines(stderr.String(), 6))
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), v); err != nil {
		return fmt.Errorf("child output: %w", err)
	}
	return nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// campaignSeed is the seed of the run's i-th campaign, as a flag value.
func (d *driver) campaignSeed(i int) string {
	return strconv.FormatInt(sim.DeriveSeed(d.seed, int64(i)), 10)
}

// iteration runs campaign i once, as one child, and applies the output
// check: the child's own report rules, then same seed, same bytes.
func (d *driver) iteration(i int, cacheDir string) (iterReport, error) {
	var rep iterReport
	if err := d.child(&rep, "-seed", d.campaignSeed(i), "-cache", cacheDir); err != nil {
		return rep, err
	}
	if len(rep.Problems) > 0 {
		return rep, errors.New(strings.Join(rep.Problems, "; "))
	}
	if first, seen := d.shas[i]; !seen {
		d.shas[i] = rep.ReportSHA
	} else if rep.ReportSHA != first {
		return rep, fmt.Errorf("campaign %d printed report sha256 %s, earlier %s", i, rep.ReportSHA, first)
	}
	return rep, nil
}

// counted is iteration for the children a run counts as attempted: a
// failure is logged and counted, and never aborts the run.
func (d *driver) counted(i int, cacheDir string) (iterReport, bool) {
	d.res.Attempted++
	rep, err := d.iteration(i, cacheDir)
	if err != nil {
		d.res.Failed++
		fmt.Fprintf(d.log, "%s: child %d (campaign %d) failed: %v\n", d.w.name, d.res.Attempted, i, err)
	}
	return rep, err == nil
}

// setup prepares campaign i: it pre-fills a fresh result cache when the
// workload runs against one, then runs one discarded iteration. It
// returns the cache directory and how long set-up took.
func (d *driver) setup(i int) (cacheDir string, took time.Duration, err error) {
	start := hostNow()
	if d.w.cached {
		cacheDir, err = os.MkdirTemp(outDir, d.w.name+"-cache-")
		if err != nil {
			return "", 0, err
		}
		var rep iterReport
		if err := d.child(&rep, "-seed", d.campaignSeed(i), "-cache", cacheDir, "-prefill"); err != nil {
			return cacheDir, 0, fmt.Errorf("cache pre-fill: %w", err)
		}
	}
	if _, err := d.iteration(i, cacheDir); err != nil {
		return cacheDir, 0, fmt.Errorf("discarded iteration: %w", err)
	}
	return cacheDir, hostNow().Sub(start), nil
}

// samples collects, per metric and campaign, the readings of a run.
type samples map[string][][]float64

func (s samples) add(campaigns, campaign int, readings map[string]float64) {
	for name, v := range readings {
		if s[name] == nil {
			s[name] = make([][]float64, campaigns)
		}
		s[name][campaign] = append(s[name][campaign], v)
	}
}

// summarize gives every campaign one vote, the median of its readings,
// and summarizes over the campaigns. How often a campaign was repeated,
// which depends on how fast the host was, does not move the result.
func (s samples) summarize(name, unit string) metricValue {
	var votes []float64
	for _, readings := range s[name] {
		if len(readings) > 0 {
			votes = append(votes, median(readings))
		}
	}
	sum := summarize(votes)
	return metricValue{Value: sum.Median, Unit: unit, Q1: sum.Q1, Q3: sum.Q3, N: sum.N}
}

// runUntraced measures every end-to-end metric. It sets up campaigns
// 0..setupRounds-1, then runs the workload's fixed list of campaigns,
// 0..campaigns-1, in a closed loop (the next child starts when the
// previous one exits) and, while seconds have not passed, goes through
// the list again: seconds buy repeats, never other inputs. seconds 0
// is the quick smoke: one set-up and one iteration.
func (d *driver) runUntraced(seconds int) error {
	rounds, campaigns := setupRounds, d.w.campaigns
	if seconds == 0 {
		rounds, campaigns = 1, 1
	}
	got := samples{}
	host := newGauge()
	var caches []string
	defer func() {
		for _, dir := range caches {
			os.RemoveAll(dir)
		}
	}()
	for i := 0; i < rounds; i++ {
		stolen := readStolen()
		dir, took, err := d.setup(i)
		if dir != "" {
			caches = append(caches, dir)
		}
		if err != nil {
			return err
		}
		stole, slow := (readStolen() - stolen).Seconds(), host.slowdown()
		got.add(rounds, i, map[string]float64{
			"setup_s":     unshared(took.Seconds(), stole) / slow,
			"raw_setup_s": took.Seconds(),
		})
	}

	start := hostNow()
	for i := 0; i < campaigns || hostNow().Sub(start) < time.Duration(seconds)*time.Second; i++ {
		campaign, cacheDir := i%campaigns, ""
		if d.w.cached {
			cacheDir = caches[campaign]
		}
		rep, ok := d.counted(campaign, cacheDir)
		slow := host.slowdown()
		if !ok {
			continue
		}
		got.add(campaigns, campaign, map[string]float64{
			"wall_s":            unshared(rep.WallS, rep.StolenS) / slow,
			"cpu_s":             rep.CPUS / slow,
			"allocs_per_iter":   float64(rep.Allocs),
			"alloc_mb_per_iter": rep.AllocMB,
			"peak_rss_mb":       rep.PeakRSSMB,
			"live_goroutines":   float64(rep.Goroutines),
			"raw_wall_s":        rep.WallS,
			"raw_cpu_s":         rep.CPUS,
			"stolen_s":          rep.StolenS,
			"slowdown":          slow,
		})
	}
	if d.res.Failed == d.res.Attempted {
		return fmt.Errorf("%s: every one of %d iterations failed", d.w.name, d.res.Attempted)
	}
	for _, m := range endToEnd {
		d.res.Metrics[m.name] = got.summarize(m.name, m.unit)
	}
	d.res.Host = map[string]metricValue{}
	for _, m := range hostReadings {
		d.res.Host[m.name] = got.summarize(m.name, m.unit)
	}
	return nil
}

// runTraced measures every per-layer metric on campaign 0: a few
// untraced iterations for reference, one traced child whose profile is
// bucketed by layer, and the probe suite in a child of its own.
func (d *driver) runTraced() error {
	cacheDir, _, err := d.setup(0)
	if cacheDir != "" {
		defer os.RemoveAll(cacheDir)
	}
	if err != nil {
		return err
	}
	host := newGauge()
	var walls []float64
	for i := 0; i < referenceIters; i++ {
		rep, ok := d.counted(0, cacheDir)
		if slow := host.slowdown(); ok {
			walls = append(walls, unshared(rep.WallS, rep.StolenS)/slow)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("%s: every reference iteration failed", d.w.name)
	}
	wall := median(walls)

	// The recorder may shift same-instant tie-breaks (ROADMAP D.1), so
	// the traced report is checked by the child's rules only and is not
	// held to the untraced report's bytes.
	var rep iterReport
	d.res.Attempted++
	if err := d.child(&rep, "-seed", d.campaignSeed(0), "-cache", cacheDir, "-trace-child"); err != nil {
		return fmt.Errorf("traced child: %w", err)
	}
	if len(rep.Problems) > 0 {
		d.res.Failed++
		fmt.Fprintf(d.log, "%s: traced child failed the output check: %s\n", d.w.name, strings.Join(rep.Problems, "; "))
	}
	tracedWall := rep.WallS / host.slowdown()
	t := rep.Trace
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", d.exe, t.Profile).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, total, err := bucketProfile(string(top))
	if err != nil {
		return err
	}
	fmt.Fprintf(d.log, "%s: traced %d repeats, %.2fs of CPU samples in %s, spans in %s\n", d.w.name, len(t.WallS), total.Seconds(), t.Profile, t.Spans)

	c := t.Counts
	per := func(ns float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}
	tracedNS := rep.WallS * 1e9
	values := map[string]float64{
		"os.ctx_switches":           float64(rep.CtxSwitches),
		"netem.segments":            float64(c.Segments),
		"netem.bytes_delivered":     float64(c.BytesDelivered),
		"netem.conns_opened":        float64(c.ConnsOpened),
		"netem.dials":               float64(c.Dials),
		"netem.dials_refused":       float64(c.DialsRefused),
		"netem.wall_ns_per_segment": per(tracedNS, c.Segments),
		"tor.cells_flushed":         float64(c.CellsFlushed),
		"tor.cells_dropped":         float64(c.CellsDropped),
		"tor.wall_ns_per_cell":      per(tracedNS, c.CellsFlushed),
		"tor.sched_delay_vms":       c.SchedDelayVMS,
		"tor.recovery_total":        float64(c.RecoveryTotal),
		"censor.throttled_segments": float64(c.ThrottledSegments),
		"censor.blocked_dials":      float64(c.BlockedDials),
		"censor.resets":             float64(c.Resets),
		"censor.loss_events":        float64(c.LossEvents),
		"harness.simulate_ms":       t.SimulateMS,
		"harness.render_ms":         t.RenderMS,
		"obs.artifacts_ms":          t.ArtifactsMS,
		"sim.cells":                 float64(c.Cells),
		"sim.vsec":                  c.VSec,
		"sim.vsec_per_wall_s":       c.VSec / wall,
		"trace.overhead_ratio":      tracedWall / wall,
	}
	for name, share := range shares {
		values[name] = share
	}

	var probes probeSet
	d.res.Attempted++
	if err := d.child(&probes, "-probes"); err != nil {
		return fmt.Errorf("probe child: %w", err)
	}
	d.allocs = map[string]float64{}
	for name, p := range probes {
		values[name] = p.Value
		d.allocs[name] = p.AllocsPerOp
	}
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		d.res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return nil
}

// print writes the run's metrics, by name and with units, then the
// uncorrected times and host readings of an untraced run, then the
// verdict of the output check.
func (d *driver) print(metrics []metric) {
	row := func(m metric, v metricValue) {
		fmt.Fprintf(d.log, "%-10s %-34s %16.4f %-6s", d.w.name, m.name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(d.log, " q1 %14.4f  q3 %14.4f  n=%d", v.Q1, v.Q3, v.N)
		}
		if a, ok := d.allocs[m.name]; ok {
			fmt.Fprintf(d.log, " %12.2f allocs/op", a)
		}
		fmt.Fprintln(d.log)
	}
	for _, m := range metrics {
		row(m, d.res.Metrics[m.name])
	}
	if d.res.Host != nil {
		for _, m := range hostReadings {
			row(m, d.res.Host[m.name])
		}
	}
	fmt.Fprintf(d.log, "%-10s failed_ratio %d/%d  seed %d  campaign 0 report sha256 %s\n", d.w.name, d.res.Failed, d.res.Attempted, d.seed, d.res.ReportSHA)
}

// runWorkload is one run: every end-to-end metric with tracing off, or
// every per-layer metric from the traced run and the probes.
func runWorkload(w workload, seed int64, seconds, trace int, log io.Writer) (result, error) {
	d, err := newDriver(w, seed, trace, log)
	if err != nil {
		return result{}, err
	}
	metrics := endToEnd
	if trace == 0 {
		err = d.runUntraced(seconds)
	} else {
		metrics = perLayer
		err = d.runTraced()
	}
	if err != nil {
		return d.res, err
	}
	d.res.ReportSHA = d.shas[0]
	d.res.Correct = d.res.Failed == 0
	d.print(metrics)
	return d.res, nil
}
