package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ptperf/internal/harness"
	"ptperf/internal/obs"
)

// iterReport is what one child process prints: the cost of one
// iteration and the verdict of the output check.
type iterReport struct {
	// WallS and CPUS span from just before harness.New to the return of
	// the last Run.
	WallS float64 `json:"wall_s"`
	// StolenS is the CPU time the hypervisor withheld from this machine
	// over the same interval, summed over its CPUs.
	StolenS     float64 `json:"stolen_s"`
	CPUS        float64 `json:"cpu_s"`
	Allocs      uint64  `json:"allocs"`
	AllocMB     float64 `json:"alloc_mb"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	CtxSwitches int64   `json:"ctx_switches"`
	// Goroutines is runtime.NumGoroutine once stable after the last
	// Run, the child's main goroutine included.
	Goroutines int    `json:"goroutines"`
	ReportSHA  string `json:"report_sha256"`
	// Problems lists every output-check rule the report broke.
	Problems []string `json:"problems,omitempty"`
	// Trace is set by the traced child only.
	Trace *traceReport `json:"trace,omitempty"`
}

// usage is a getrusage(RUSAGE_SELF) reading.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // KiB on Linux
	nvcsw  int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
		nvcsw:  ru.Nvcsw,
	}
}

// stableGoroutines reads the goroutine count until three reads 1 ms
// apart agree: simulation goroutines of an abandoned world may still be
// unwinding when Run returns.
func stableGoroutines() int {
	last, same := runtime.NumGoroutine(), 1
	for i := 0; i < 500 && same < 3; i++ {
		hostPause(time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			same++
		} else {
			last, same = n, 1
		}
	}
	return last
}

// campaign runs the workload's experiments once on a fresh Runner and
// returns the Runner for the traced child's counts. parent is the span
// the calls nest under; tr may be nil.
func (w workload) campaign(cfg harness.Config, cacheDir string, out io.Writer, tr *tracer, parent, iter int) (*harness.Runner, error) {
	id := tr.begin("harness.new", parent, iter)
	r := harness.New(cfg, out)
	var err error
	if w.cached {
		err = r.EnableCache(cacheDir)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, e := range w.exps {
		id := tr.begin("harness.run:"+e.id, parent, iter)
		err := r.Run(e.id)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
	}
	return r, nil
}

// sections lists the experiment ids whose "=== id — " header the report
// must carry, and the subset whose body must name every method.
func (w workload) sections() (headers, rows []string) {
	for _, e := range w.exps {
		if e.id != "all" {
			headers = append(headers, e.id)
			rows = append(rows, e.id)
			continue
		}
		for _, x := range harness.Experiments() {
			if !x.Optional {
				headers = append(headers, x.ID)
			}
		}
		// The three campaigns that measure every method; the other
		// artifacts of "all" use method subsets by design.
		rows = append(rows, "fig2a", "fig2b", "fig5", "fig6", "fig8", "fig11", "table3", "table5", "table7")
	}
	return headers, rows
}

// seleniumSections render the browser campaign, which does not support
// camoufler (the paper's Figure 2b leaves it out too).
var seleniumSections = map[string]bool{"fig2b": true, "fig11": true, "table5": true}

// checkReport applies the output check to one Runner's report text and
// returns the rules it breaks.
func (w workload) checkReport(report string) []string {
	var problems []string
	headers, rows := w.sections()
	body := make(map[string]string, len(headers))
	for _, id := range headers {
		marker := "\n=== " + id + " — "
		i := strings.Index(report, marker)
		if i < 0 {
			problems = append(problems, "missing header of "+id)
			continue
		}
		rest := report[i+len(marker):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			rest = rest[nl:]
		}
		if end := strings.Index(rest, "\n=== "); end >= 0 {
			rest = rest[:end]
		}
		body[id] = rest
	}
	named := make([]*regexp.Regexp, len(w.methods))
	for i, m := range w.methods {
		named[i] = regexp.MustCompile(`\b` + regexp.QuoteMeta(m) + `\b`)
	}
	for _, id := range rows {
		b, ok := body[id]
		if !ok {
			continue
		}
		for i, m := range w.methods {
			if m == "camoufler" && seleniumSections[id] {
				continue
			}
			if !named[i].MatchString(b) {
				problems = append(problems, fmt.Sprintf("%s has no row for %s", id, m))
			}
		}
	}
	return problems
}

// runChild is one iteration: it measures the workload in this fresh
// process and prints one JSON line. The traced form repeats the
// campaign under the CPU profiler and the metric recorder.
func runChild(name string, seed int64, cacheDir string, traced bool) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := w.config(seed)
	var rep iterReport
	if traced {
		tr, err := w.runTraced(cfg, cacheDir, &rep)
		if err != nil {
			return err
		}
		rep.Trace = tr
	} else if err := w.runTimed(cfg, cacheDir, &rep); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runPrefill fills the result cache of a cached workload: one cold run
// of its campaign that stores every cell.
func runPrefill(name string, seed int64, cacheDir string) error {
	w, ok := lookupWorkload(name)
	if !ok || !w.cached {
		return fmt.Errorf("workload %q has no cache to fill", name)
	}
	if _, err := w.campaign(w.config(seed), cacheDir, io.Discard, nil, 0, 0); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(iterReport{})
}

// runRepeats runs the campaign w.repeat times back to back, each on a
// fresh Runner. It returns the last Runner, the first report, and the
// SHA-256 of all report bytes; a repeat whose report differs from the
// first is recorded as a problem.
func (w workload) runRepeats(cfg harness.Config, cacheDir string, tr *tracer, parent, iter int, rep *iterReport) (last *harness.Runner, first []byte, sha string, err error) {
	h := sha256.New()
	var buf bytes.Buffer
	for k := 0; k < w.repeat; k++ {
		buf.Reset()
		last, err = w.campaign(cfg, cacheDir, &buf, tr, parent, iter)
		if err != nil {
			return nil, nil, "", err
		}
		h.Write(buf.Bytes())
		if k == 0 {
			first = bytes.Clone(buf.Bytes())
		} else if !bytes.Equal(first, buf.Bytes()) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("report of repeat %d differs from repeat 0", k))
		}
		w.checkCache(last, rep)
	}
	return last, first, hex.EncodeToString(h.Sum(nil)), nil
}

// runTimed is the untraced iteration every end-to-end metric comes from.
func (w workload) runTimed(cfg harness.Config, cacheDir string, rep *iterReport) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0 := readUsage()
	st0 := readStolen()
	t0 := hostNow()
	_, first, sha, err := w.runRepeats(cfg, cacheDir, nil, 0, 0, rep)
	if err != nil {
		return err
	}
	wall := hostNow().Sub(t0)
	rep.StolenS = (readStolen() - st0).Seconds()
	u1 := readUsage()
	runtime.ReadMemStats(&ms1)

	rep.WallS = wall.Seconds()
	rep.CPUS = (u1.cpu - u0.cpu).Seconds()
	rep.Allocs = ms1.Mallocs - ms0.Mallocs
	rep.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rep.CtxSwitches = u1.nvcsw - u0.nvcsw
	rep.Goroutines = stableGoroutines()
	rep.PeakRSSMB = float64(readUsage().maxRSS) / 1024
	rep.ReportSHA = sha
	rep.Problems = append(rep.Problems, w.checkReport(string(first))...)
	return nil
}

// checkCache records a problem when a Runner of a cached workload did
// anything but hit the cache on every cell.
func (w workload) checkCache(r *harness.Runner, rep *iterReport) {
	st := r.CacheStats()
	if w.cached && (st.Misses != 0 || st.Stores != 0 || st.Hits == 0) {
		rep.Problems = append(rep.Problems, fmt.Sprintf("cache hits=%d misses=%d stores=%d, want every cell to hit", st.Hits, st.Misses, st.Stores))
	}
}

// traceReport is what the traced child adds to its iterReport.
type traceReport struct {
	// WallS holds the wall seconds of each in-process repeat, less the
	// campaign's share of stolen time (unshared).
	WallS []float64 `json:"wall_s"`
	// SimulateMS, RenderMS and ArtifactsMS are span sums per repeat,
	// the median over the repeats, in host milliseconds.
	SimulateMS  float64 `json:"simulate_ms"`
	RenderMS    float64 `json:"render_ms"`
	ArtifactsMS float64 `json:"artifacts_ms"`
	// Counts are the simulation counts of the first repeat (every
	// repeat of one seed counts the same).
	Counts  simCounts `json:"counts"`
	Profile string    `json:"profile"`
	Spans   string    `json:"spans"`
}

// simCounts are the per-layer counts read from Runner.Timelines.
type simCounts struct {
	Cells             int     `json:"cells"`
	VSec              float64 `json:"vsec"`
	Segments          int64   `json:"segments"`
	BytesDelivered    int64   `json:"bytes_delivered"`
	ConnsOpened       int64   `json:"conns_opened"`
	Dials             int64   `json:"dials"`
	DialsRefused      int64   `json:"dials_refused"`
	CellsFlushed      int64   `json:"cells_flushed"`
	CellsDropped      int64   `json:"cells_dropped"`
	SchedDelayVMS     float64 `json:"sched_delay_vms"`
	RecoveryTotal     int64   `json:"recovery_total"`
	ThrottledSegments int     `json:"throttled_segments"`
	BlockedDials      int     `json:"blocked_dials"`
	Resets            int     `json:"resets"`
	LossEvents        int     `json:"loss_events"`
}

// countTimelines sums the recorder's counters over every cell.
func countTimelines(cells []obs.CellTimeline) simCounts {
	var c simCounts
	var delay time.Duration
	var flushed int64
	for _, ct := range cells {
		tl := ct.Timeline
		c.Cells++
		c.VSec += tl.Horizon().Seconds()
		c.Segments += tl.Final.SegmentsSent
		c.BytesDelivered += tl.Final.BytesDelivered
		c.ConnsOpened += tl.Final.ConnsOpened
		c.Dials += tl.Final.Dials
		c.DialsRefused += tl.Final.DialsRefused
		c.CellsFlushed += tl.Final.CellsFlushed
		c.CellsDropped += tl.Final.CellsDropped
		for _, s := range tl.Samples {
			c.ThrottledSegments += s.Censor.ThrottledSegments
			c.BlockedDials += s.Censor.BlockedDials
			c.Resets += s.Censor.Resets
			c.LossEvents += s.Censor.LossEvents
			for _, rp := range s.Relays {
				delay += rp.Delay
				flushed += rp.Flushed
			}
			for _, p := range s.Recovery {
				c.RecoveryTotal += p.Rebuilds + p.BuildTimeouts + p.StreamFailures + p.ReAttaches + p.Abandoned + p.GuardProbations
			}
		}
	}
	if flushed > 0 {
		c.SchedDelayVMS = float64(delay) / float64(time.Millisecond) / float64(flushed)
	}
	return c
}

// runTraced repeats the campaign traceRepeats times under the CPU
// profiler, with the metric recorder on and a span around every call
// into the harness. No end-to-end number comes from this run.
func (w workload) runTraced(cfg harness.Config, cacheDir string, rep *iterReport) (*traceReport, error) {
	if !w.cached {
		// The interval is part of every cache digest: turning it on for
		// the cached workload would miss the pre-filled cache.
		cfg.MetricsInterval = harness.DefaultMetricsInterval
	}
	t := &traceReport{
		Profile: filepath.Join(outDir, w.name+".cpu.pprof"),
		Spans:   filepath.Join(outDir, w.name+".trace.json"),
	}
	artifacts, err := os.MkdirTemp(outDir, w.name+"-artifacts-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(artifacts)
	pf, err := os.Create(t.Profile)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, err
	}
	defer pprof.StopCPUProfile()

	tr := newTracer()
	u0 := readUsage()
	for it := 0; it < traceRepeats; it++ {
		st0 := readStolen()
		root := tr.begin("iteration", -1, it)
		last, first, sha, err := w.runRepeats(cfg, cacheDir, tr, root, it, rep)
		if err != nil {
			return nil, err
		}
		wall := unshared(tr.elapsed(root).Seconds(), (readStolen() - st0).Seconds())
		id := tr.begin("harness.artifacts", root, it)
		err = last.WriteArtifacts(artifacts, filepath.Join(artifacts, "report.html"), "")
		tr.end(id)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		t.WallS = append(t.WallS, wall)
		if it == 0 {
			t.Counts = countTimelines(last.Timelines())
			rep.ReportSHA = sha
			rep.Problems = append(rep.Problems, w.checkReport(string(first))...)
		} else if sha != rep.ReportSHA {
			rep.Problems = append(rep.Problems, fmt.Sprintf("report of traced repeat %d differs from repeat 0", it))
		}
	}
	pprof.StopCPUProfile()
	u1 := readUsage()
	rep.CtxSwitches = (u1.nvcsw - u0.nvcsw) / traceRepeats
	rep.WallS = median(t.WallS)

	pays := make(map[string]bool, len(w.exps))
	for _, e := range w.exps {
		pays["harness.run:"+e.id] = e.pays
	}
	var sim, render, art []float64
	for it := 0; it < traceRepeats; it++ {
		var s, r, a time.Duration
		for _, sp := range tr.spans {
			if sp.Iter != it {
				continue
			}
			d := time.Duration(sp.EndNS - sp.StartNS)
			switch {
			case sp.Name == "harness.artifacts":
				a += d
			case strings.HasPrefix(sp.Name, "harness.run:") && pays[sp.Name]:
				s += d
			case strings.HasPrefix(sp.Name, "harness.run:"):
				r += d
			}
		}
		sim, render, art = append(sim, ms(s)), append(render, ms(r)), append(art, ms(a))
	}
	t.SimulateMS, t.RenderMS, t.ArtifactsMS = median(sim), median(render), median(art)
	return t, tr.write(t.Spans)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
