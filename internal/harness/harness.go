// Package harness runs the paper's experiments: it builds testbed
// worlds, drives the measurement campaigns (curl, selenium, speed index,
// bulk files, locations, load scenarios), applies the statistics, and
// prints each table and figure of the evaluation section.
//
// Execution is sharded by world (see internal/sim): an experiment
// decomposes into independent world tasks — one per campaign world,
// per sweep scenario cell, per client location — submitted to a shard
// executor that runs up to Config.Jobs of them on real OS parallelism.
// Each task builds its own virtual clock, so intra-world behaviour is
// bit-identical to sequential execution, and reports are assembled in
// canonical order after join, never in completion order: the same seed
// produces byte-identical reports at any -jobs value.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
	"ptperf/internal/obs"
	"ptperf/internal/plot"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/web"
)

// Config sizes a campaign. The zero value is a CI-friendly small run;
// the paper-scale campaign raises Sites/Repeats/FileAttempts.
type Config struct {
	// Seed drives the whole campaign deterministically.
	Seed int64
	// ByteScale scales sizes, rates and caps together (see testbed).
	ByteScale float64
	// Sites is the number of sites measured per catalog.
	Sites int
	// Repeats is accesses per site (the paper uses 5).
	Repeats int
	// FileAttempts is download attempts per file size (paper: 10–20).
	FileAttempts int
	// FileSizesMB selects which of Figure 5's sizes to run.
	FileSizesMB []int
	// Transports lists methods to evaluate; empty means all 12 + tor.
	Transports []string
	// Scenario names a censor scenario (internal/censor registry) that
	// every experiment's world is built under. Empty leaves the paper
	// experiments on unpoliced networks; the scenario:<name> and sweep
	// experiments select their scenarios themselves.
	Scenario string
	// Jobs bounds how many independent world tasks run concurrently on
	// OS threads (0 = runtime.GOMAXPROCS(0), 1 = fully sequential).
	// Reports are byte-identical for any value; Jobs trades memory for
	// wall-clock time only.
	Jobs int
	// Sequential disables the per-transport parallelism inside one
	// world (simulation goroutines on that world's clock). It does not
	// affect Jobs, which parallelizes across worlds.
	Sequential bool
	// Plot adds ASCII box plots and ECDF curves under the tables,
	// mirroring the paper's figure shapes.
	Plot bool
	// MetricsInterval enables per-cell metric timelines (internal/obs),
	// sampled every MetricsInterval of virtual time on each world's own
	// clock; zero disables sampling. A sample moves no byte, so reports
	// are the same either way and the interval is in no cache digest: a
	// cached cell answers a sampled run only if it holds a timeline of
	// this interval.
	MetricsInterval time.Duration
	// Progress, when non-nil, receives a streaming per-cell status line
	// (cells queued/running/done, virtual-time horizon per running
	// cell). It is written from task goroutines in completion order —
	// point it at stderr, never at the report stream.
	Progress io.Writer
}

// DefaultMetricsInterval is the sampling interval campaign drivers use
// when metric export is requested without an explicit interval.
const DefaultMetricsInterval = obs.DefaultInterval

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ByteScale <= 0 {
		c.ByteScale = 0.125
	}
	if c.Sites <= 0 {
		c.Sites = 12
	}
	if c.Repeats <= 0 {
		c.Repeats = 2
	}
	if c.FileAttempts <= 0 {
		c.FileAttempts = 2
	}
	if len(c.FileSizesMB) == 0 {
		c.FileSizesMB = web.FileSizesMB
	}
	if len(c.Transports) == 0 {
		c.Transports = append([]string{"tor"}, pt.Names()...)
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	return c
}

// Runner executes experiments and writes reports.
type Runner struct {
	cfg     Config
	out     io.Writer
	exec    *sim.Executor
	monitor *sim.Monitor // nil unless Config.Progress is set
	cache   *obs.Cache   // nil unless EnableCache was called

	mu    sync.Mutex
	cells map[string]any // cell key → its *sim.Future[Out] (see submit)

	// omu guards the observability sinks: per-cell timelines, the
	// experiments run (for Sections) and the worlds' scheduler counters.
	omu       sync.Mutex
	timelines map[string]*obs.Timeline
	ran       []*Experiment
	simStats  netem.Stats

	// Render scratch, reused by every report (rendering is
	// single-threaded): see table, box, curve and writeECDF.
	tab    table
	boxes  []plot.Box
	curves []plot.Series
	ecdf   stats.ECDF
}

// New creates a Runner writing its reports to out.
func New(cfg Config, out io.Writer) *Runner {
	c := cfg.withDefaults()
	r := &Runner{
		cfg:       c,
		out:       out,
		exec:      sim.NewExecutor(c.Jobs),
		cells:     make(map[string]any),
		timelines: make(map[string]*obs.Timeline),
	}
	if c.Progress != nil {
		r.monitor = sim.NewMonitor(c.Progress)
	}
	return r
}

// Experiment describes one runnable artifact reproduction.
type Experiment struct {
	// ID is the CLI name (e.g. "fig2a").
	ID string
	// Artifact names the paper table/figure.
	Artifact string
	// Title is a one-line description.
	Title string
	// Optional experiments (the censor scenarios and the sweep) go
	// beyond the paper's artifacts and are excluded from "all".
	Optional bool
	// prefetch submits the experiment's cells without waiting (the
	// same cells run joins), so "all" overlaps every experiment's
	// simulation work across the executor while still rendering in
	// paper order.
	prefetch func(*Runner)
	run      func(*Runner) error
}

// Experiments lists every reproducible artifact in paper order, then
// the censor-scenario experiments. The list is built once and shared:
// callers read it and must not modify it.
func Experiments() []Experiment { return experiments }

var experiments = func() []Experiment {
	exps := []Experiment{
		{ID: "table1", Artifact: "Table 1", Title: "measurement campaign overview", run: (*Runner).runTable1},
		{ID: "table2", Artifact: "Table 2", Title: "28 candidate transports at a glance", run: (*Runner).runTable2},
		{ID: "fig2a", Artifact: "Figure 2a", Title: "website access time, curl", prefetch: one(Config.curlCell), run: (*Runner).runFig2a},
		{ID: "fig2b", Artifact: "Figure 2b", Title: "website access time, selenium", prefetch: one(Config.seleniumCell), run: (*Runner).runFig2b},
		{ID: "fig3", Artifact: "Figure 3a/3b", Title: "fixed-circuit comparison and ECDF", prefetch: one(Config.fig3Cell), run: (*Runner).runFig3},
		{ID: "fig4", Artifact: "Figure 4", Title: "fixed guard, variable middle/exit", prefetch: one(Config.fig4Cell), run: (*Runner).runFig4},
		{ID: "fig5", Artifact: "Figure 5", Title: "file download time by size", prefetch: one(Config.filesCell), run: (*Runner).runFig5},
		{ID: "fig6", Artifact: "Figure 6", Title: "time to first byte ECDF", prefetch: one(Config.curlCell), run: (*Runner).runFig6},
		{ID: "fig7", Artifact: "Figure 7", Title: "client-location variation", prefetch: each(Config.fig7Cells), run: (*Runner).runFig7},
		{ID: "fig8", Artifact: "Figure 8a/8b", Title: "download reliability", prefetch: one(Config.filesCell), run: (*Runner).runFig8},
		{ID: "fig9", Artifact: "Figure 9", Title: "PT overhead vs vanilla Tor", prefetch: one(Config.fig9Cell), run: (*Runner).runFig9},
		{ID: "fig10", Artifact: "Figure 10a/10b", Title: "snowflake under load", prefetch: one(Config.fig10Cell), run: (*Runner).runFig10},
		{ID: "fig11", Artifact: "Figure 11", Title: "speed index", prefetch: one(Config.seleniumCell), run: (*Runner).runFig11},
		{ID: "fig12", Artifact: "Figure 12", Title: "snowflake post-September months", prefetch: one(Config.fig12Cell), run: (*Runner).runFig12},
		{ID: "medium", Artifact: "Section 4.7", Title: "wired vs wireless access medium", prefetch: each(Config.mediumCells), run: (*Runner).runMedium},
		{ID: "table3", Artifact: "Tables 3–4", Title: "paired t-tests, curl access", prefetch: one(Config.curlCell), run: (*Runner).runTables34},
		{ID: "table5", Artifact: "Tables 5–6", Title: "paired t-tests, selenium access", prefetch: one(Config.seleniumCell), run: (*Runner).runTables56},
		{ID: "table7", Artifact: "Table 7", Title: "paired t-tests, file download", prefetch: one(Config.filesCell), run: (*Runner).runTable7},
		{ID: "table8", Artifact: "Tables 8–9", Title: "paired t-tests, speed index", prefetch: one(Config.seleniumCell), run: (*Runner).runTables89},
		{ID: "table10", Artifact: "Table 10", Title: "paired t-tests, PT categories", prefetch: one(Config.curlCell), run: (*Runner).runTable10},
	}
	for _, name := range censor.Names() {
		name := name
		sc, _ := censor.Lookup(name)
		exps = append(exps, Experiment{
			ID:       "scenario:" + name,
			Artifact: "Censor layer",
			Title:    sc.Description,
			Optional: true,
			prefetch: func(r *Runner) { submit(r, r.cfg.sweepCell(name)) },
			run:      func(r *Runner) error { return r.runScenario(name) },
		})
	}
	exps = append(exps, Experiment{
		ID:       "sweep",
		Artifact: "Censor layer",
		Title:    "scenario sweep: {transports} × {scenarios} vs the clean baseline",
		Optional: true,
		prefetch: each(Config.sweepCells),
		run:      (*Runner).runSweep,
	})
	exps = append(exps, Experiment{
		ID:       "contention",
		Artifact: "Relay scheduler",
		Title:    "guard-contention sweep: {tor,obfs4,webtunnel} × {competitor load} + FIFO baseline",
		Optional: true,
		prefetch: each(Config.contentionCells),
		run:      (*Runner).runContention,
	})
	exps = append(exps, Experiment{
		ID:       "churn",
		Artifact: "Failure & recovery",
		Title:    "churn-resilience sweep: {tor,obfs4,webtunnel,snowflake} × {relay churn rate} vs the fault-free baseline",
		Optional: true,
		prefetch: each(Config.churnCells),
		run:      (*Runner).runChurn,
	})
	return exps
}()

// Run executes one experiment by ID ("all" runs every paper artifact;
// the scenario experiments and the sweep run by explicit ID).
func (r *Runner) Run(id string) error {
	exps := Experiments()
	if id == "all" {
		// Submit every experiment's world tasks before rendering any:
		// the executor keeps all cores busy while the reports are
		// still written strictly in paper order.
		for _, e := range exps {
			if !e.Optional && e.prefetch != nil {
				e.prefetch(r)
			}
		}
		for i := range exps {
			if e := &exps[i]; !e.Optional {
				if err := r.run(e); err != nil {
					return fmt.Errorf("%s: %w", e.ID, err)
				}
			}
		}
		return nil
	}
	for i := range exps {
		if exps[i].ID == id {
			return r.run(&exps[i])
		}
	}
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	return fmt.Errorf("harness: unknown experiment %q (have all, %s)", id, strings.Join(ids, ", "))
}

// run notes the experiment for Sections and renders it to r.out.
func (r *Runner) run(e *Experiment) error {
	r.omu.Lock()
	r.ran = append(r.ran, e)
	r.omu.Unlock()
	return r.render(r.out, e)
}

// render writes one experiment's report to w. Rendering is single-threaded
// (tasks never write r.out), so swapping the writer is safe.
func (r *Runner) render(w io.Writer, e *Experiment) error {
	orig := r.out
	r.out = w
	fmt.Fprintf(w, "\n=== %s — %s (%s) ===\n", e.ID, e.Title, e.Artifact)
	err := e.run(r)
	r.out = orig
	return err
}

// Seed streams. Every cell derives its Options.Seed from
// sim.DeriveSeed(cfg.Seed, stream): distinct streams are statistically
// independent, equal streams rebuild identical worlds. The campaign
// worlds (curl, selenium, files) share streamCampaign so the three
// paper campaigns measure the same topology, and every sweep cell
// shares streamScenario so the only difference between scenario
// columns is the interference itself.
const (
	streamCampaign   = 0
	streamFig3       = 1000
	streamFig4       = 1100
	streamFig7       = 1200 // path element 2: location index
	streamFig9       = 2000
	streamFig10      = 3000
	streamFig12      = 3100
	streamMedium     = 4000 // path element 2: medium index
	streamScenario   = 5000
	streamContention = 6000 // one seed for every contention cell
	streamChurn      = 7000 // one seed for every churn cell
)

// worldOptions builds one cell's Options on the given seed stream.
// Per-cell indices (fig7's location, medium's access medium) go in as
// further path elements — never added into the stream id, which would
// reintroduce the additive collisions DeriveSeed removes.
func (c Config) worldOptions(stream ...int64) testbed.Options {
	return testbed.Options{
		Seed:      sim.DeriveSeed(c.Seed, stream...),
		ByteScale: c.ByteScale,
		TrancoN:   c.Sites,
		CBLN:      c.Sites,
		Scenario:  c.Scenario,
	}
}

// sitePaths returns the measured site set: every site of each catalog
// (Config.Sites sized them), Tranco first — order is what aligns paired
// samples.
func sitePaths(w *testbed.World) []string {
	var out []string
	for _, cat := range []*web.Catalog{w.Tranco, w.CBL} {
		for _, s := range cat.Sites {
			out = append(out, s.Path)
		}
	}
	return out
}

// firstSites bounds the site sample to its first n paths; the Tranco
// catalog's size selects exactly the Tranco sites.
func firstSites(w *testbed.World, n int) []string {
	paths := sitePaths(w)
	return paths[:min(n, len(paths))]
}

// seconds converts a virtual duration to float seconds for stats.
func seconds(d time.Duration) float64 { return d.Seconds() }

// methodRank is each method's place in the report rows: Tor first, then
// the paper's PT ordering. A name it lacks ranks with Tor.
var methodRank = func() map[string]int {
	rank := map[string]int{"tor": 0}
	for i, info := range pt.Infos {
		rank[info.Name] = i + 1
	}
	return rank
}()

// orderedMethods keeps report rows in category order. slices.SortFunc
// is sort.Slice's pattern-defeating quicksort, so even names of one rank
// keep the order they always had.
func orderedMethods(methods []string) []string {
	out := append([]string(nil), methods...)
	slices.SortFunc(out, func(a, b string) int { return methodRank[a] - methodRank[b] })
	return out
}
