package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"ptperf/internal/obs"
)

// obsConfig is the sweep config with metric sampling enabled.
func obsConfig(seed int64) Config {
	cfg := sweepConfig(seed)
	cfg.MetricsInterval = time.Second
	return cfg
}

// runWithMetrics runs the experiment and returns (report, prometheus).
func runWithMetrics(t *testing.T, cfg Config, exps ...string) (string, string, *Runner) {
	t.Helper()
	var buf bytes.Buffer
	r := New(cfg, &buf)
	for _, exp := range exps {
		if err := r.Run(exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	var prom bytes.Buffer
	obs.WritePrometheus(&prom, r.Timelines())
	return buf.String(), prom.String(), r
}

// TestMetricsDeterminism pins the tentpole's determinism contract: with
// sampling enabled, both the campaign report and the Prometheus dump
// are byte-identical across same-seed runs.
func TestMetricsDeterminism(t *testing.T) {
	repA, promA, _ := runWithMetrics(t, obsConfig(11), "fig4")
	repB, promB, _ := runWithMetrics(t, obsConfig(11), "fig4")
	if repA != repB {
		t.Fatalf("same seed produced different reports:\n--- first ---\n%s\n--- second ---\n%s", repA, repB)
	}
	if promA != promB {
		t.Fatalf("same seed produced different Prometheus dumps:\n--- first ---\n%s\n--- second ---\n%s", promA, promB)
	}
	if !strings.Contains(promA, `cell="fig4"`) {
		t.Fatalf("Prometheus dump lacks the fig4 cell:\n%s", promA)
	}
}

// TestMetricsJobsEquivalence extends the -jobs oracle to the metric
// layer: each recorder samples on its own world's clock, so running the
// fig7 cells one at a time or all at once must produce byte-identical
// timelines.
func TestMetricsJobsEquivalence(t *testing.T) {
	run := func(jobs int) (string, string) {
		cfg := obsConfig(11)
		cfg.Jobs = jobs
		rep, prom, _ := runWithMetrics(t, cfg, "fig7")
		return rep, prom
	}
	repSeq, promSeq := run(1)
	repPar, promPar := run(4)
	if repSeq != repPar {
		t.Fatalf("reports differ between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", repSeq, repPar)
	}
	if promSeq != promPar {
		t.Fatalf("Prometheus dumps differ between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", promSeq, promPar)
	}
}

// TestTimelinesRecorded checks the runner collects one timeline per
// world cell, in canonical order, with conserving totals.
func TestTimelinesRecorded(t *testing.T) {
	_, _, r := runWithMetrics(t, obsConfig(7), "fig7")
	tls := r.Timelines()
	if len(tls) != 3 {
		t.Fatalf("fig7 recorded %d timelines, want 3 (one per location)", len(tls))
	}
	for i := 1; i < len(tls); i++ {
		if tls[i-1].Cell >= tls[i].Cell {
			t.Fatalf("timelines out of canonical order: %q before %q", tls[i-1].Cell, tls[i].Cell)
		}
	}
	for _, ct := range tls {
		if ct.Timeline.Regressions != 0 {
			t.Errorf("%s: %d clamped regressions", ct.Cell, ct.Timeline.Regressions)
		}
		if len(ct.Timeline.Samples) == 0 {
			t.Errorf("%s: empty timeline", ct.Cell)
		}
	}
}

// cacheRun is one campaign against a shared cache directory.
func cacheRun(t *testing.T, cfg Config, dir string) (string, string, obs.CacheStats) {
	t.Helper()
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.EnableCache(dir); err != nil {
		t.Fatalf("enable cache: %v", err)
	}
	for _, exp := range []string{"fig4", "fig7"} {
		if err := r.Run(exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	var prom bytes.Buffer
	obs.WritePrometheus(&prom, r.Timelines())
	return buf.String(), prom.String(), r.CacheStats()
}

// TestCacheSoundness is the incremental-execution acceptance test: a
// second identical run answers every cell from the cache and renders
// byte-identical artifacts, and mutating one knob invalidates exactly
// the cells whose measurement reads it (fig4 reads Repeats via its
// iteration count; fig7 does not).
func TestCacheSoundness(t *testing.T) {
	dir := t.TempDir()
	cfg := obsConfig(11)

	// fig4 is one cell, fig7 is three (one per client city).
	rep1, prom1, st1 := cacheRun(t, cfg, dir)
	if st1.Hits != 0 || st1.Misses != 4 || st1.Stores != 4 {
		t.Fatalf("cold run stats = %+v, want 0 hits / 4 misses / 4 stores", st1)
	}

	rep2, prom2, st2 := cacheRun(t, cfg, dir)
	if st2.Hits != 4 || st2.Misses != 0 || st2.Stores != 0 {
		t.Fatalf("warm run stats = %+v, want 4 hits / 0 misses / 0 stores", st2)
	}
	if rep1 != rep2 {
		t.Fatalf("cache hit rendered a different report:\n--- computed ---\n%s\n--- cached ---\n%s", rep1, rep2)
	}
	if prom1 != prom2 {
		t.Fatalf("cache hit rendered a different Prometheus dump:\n--- computed ---\n%s\n--- cached ---\n%s", prom1, prom2)
	}

	// Repeats feeds fig4's iteration count but none of fig7's inputs:
	// exactly one cell recomputes.
	mutated := cfg
	mutated.Repeats++
	_, _, st3 := cacheRun(t, mutated, dir)
	if st3.Hits != 3 || st3.Misses != 1 || st3.Stores != 1 {
		t.Fatalf("mutated run stats = %+v, want 3 hits / 1 miss / 1 store", st3)
	}
}

// TestObservationDoesNotPerturb is the zero-perturbation contract:
// every registered experiment renders the same report bytes whether or
// not a recorder samples each of its worlds.
func TestObservationDoesNotPerturb(t *testing.T) {
	run := func(interval time.Duration) string {
		cfg := sweepConfig(3)
		cfg.Sites, cfg.ByteScale, cfg.MetricsInterval = 2, 0.01, interval
		var buf bytes.Buffer
		r := New(cfg, &buf)
		for _, e := range Experiments() {
			if err := r.Run(e.ID); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		if sampled := len(r.Timelines()) > 0; sampled != (interval > 0) {
			t.Fatalf("interval %v recorded %d timelines", interval, len(r.Timelines()))
		}
		return buf.String()
	}
	if plain, sampled := run(0), run(time.Second); plain != sampled {
		t.Fatalf("sampling moved report bytes:\n--- plain ---\n%s\n--- sampled ---\n%s", plain, sampled)
	}
}

// TestMetricsCacheAnswersPlainRun: a cache a metrics run filled answers
// a plain run whole, with the same report and no timeline.
func TestMetricsCacheAnswersPlainRun(t *testing.T) {
	dir := t.TempDir()
	cfg := obsConfig(11)
	rep, _, _ := cacheRun(t, cfg, dir)
	cfg.MetricsInterval = 0
	plain, prom, st := cacheRun(t, cfg, dir)
	if st != (obs.CacheStats{Hits: 4}) {
		t.Fatalf("plain run over a metrics cache: stats %+v, want 4 hits / 0 misses / 0 stores", st)
	}
	if plain != rep {
		t.Fatalf("plain run over a metrics cache rendered another report:\n--- metrics ---\n%s\n--- plain ---\n%s", rep, plain)
	}
	if prom != "" {
		t.Fatalf("plain run restored timelines:\n%s", prom)
	}
}

// TestPlainCacheMissesForMetrics: a cache a plain run filled has no
// timeline, so a metrics run recomputes every cell, stores it again and
// records what an uncached run records; an entry with a timeline of
// another interval misses too.
func TestPlainCacheMissesForMetrics(t *testing.T) {
	dir := t.TempDir()
	cfg := obsConfig(11)
	plain := cfg
	plain.MetricsInterval = 0
	rep, _, _ := cacheRun(t, plain, dir)
	wantRep, wantProm, _ := runWithMetrics(t, cfg, "fig4", "fig7")
	gotRep, gotProm, st := cacheRun(t, cfg, dir)
	if st != (obs.CacheStats{Misses: 4, Stores: 4}) {
		t.Fatalf("metrics run over a plain cache: stats %+v, want 0 hits / 4 misses / 4 stores", st)
	}
	if gotRep != rep || gotProm != wantProm {
		t.Fatalf("metrics run over a plain cache differs from an uncached one:\n--- uncached ---\n%s%s\n--- cached ---\n%s%s", wantRep, wantProm, gotRep, gotProm)
	}
	if _, _, st := cacheRun(t, cfg, dir); st != (obs.CacheStats{Hits: 4}) {
		t.Fatalf("rerun with the timelines stored: stats %+v, want 4 hits", st)
	}
	cfg.MetricsInterval = 2 * time.Second
	if _, _, st := cacheRun(t, cfg, dir); st != (obs.CacheStats{Misses: 4, Stores: 4}) {
		t.Fatalf("another interval: stats %+v, want 4 misses / 4 stores", st)
	}
}

// TestUndecodableEntryCountsAsMiss files garbage under a cell's own
// digest (schema drift without a version bump): the cell is recomputed
// and the entry overwritten, so the run must say misses=1, not hits=1 —
// "hits=N misses=0" is the CI gate for "recomputed nothing".
func TestUndecodableEntryCountsAsMiss(t *testing.T) {
	cfg := obsConfig(11)
	var want bytes.Buffer
	if err := New(cfg, &want).Run("fig4"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cache, err := obs.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.withDefaults().fig4Cell()
	garbage := &obs.Entry{Key: c.key, Digest: c.digest(), Value: []byte(`"garbage"`)}
	if err := cache.Store(garbage); err != nil {
		t.Fatal(err)
	}

	run := func() (string, obs.CacheStats) {
		var buf bytes.Buffer
		r := New(cfg, &buf)
		if err := r.EnableCache(dir); err != nil {
			t.Fatal(err)
		}
		if err := r.Run("fig4"); err != nil {
			t.Fatal(err)
		}
		return buf.String(), r.CacheStats()
	}
	rep, st := run()
	if st != (obs.CacheStats{Misses: 1, Stores: 1}) {
		t.Fatalf("stats over a garbage entry = %+v, want 0 hits / 1 miss / 1 store", st)
	}
	if rep != want.String() {
		t.Fatalf("recomputed report differs from an uncached run:\n--- uncached ---\n%s\n--- over garbage ---\n%s", want.String(), rep)
	}
	if rep, st = run(); st != (obs.CacheStats{Hits: 1}) || rep != want.String() {
		t.Fatalf("overwritten entry did not answer the rerun: stats %+v", st)
	}
}

// TestCacheDisabledByDefault guards the default path: without
// EnableCache nothing touches the filesystem and stats stay zero.
func TestCacheDisabledByDefault(t *testing.T) {
	var buf bytes.Buffer
	r := New(obsConfig(3), &buf)
	if err := r.Run("fig4"); err != nil {
		t.Fatal(err)
	}
	if st := r.CacheStats(); st != (obs.CacheStats{}) {
		t.Fatalf("cache stats %+v without a cache", st)
	}
}

// TestProgressMonitor checks the live progress stream: every cell
// appears, transitions print lines, and cached cells are flagged.
func TestProgressMonitor(t *testing.T) {
	dir := t.TempDir()
	cfg := obsConfig(5)

	var progress bytes.Buffer
	cfg.Progress = &progress
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	if err := r.Run("fig4"); err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	if !strings.Contains(out, "[cells] 0/1 done, 1 running: fig4") {
		t.Errorf("progress stream lacks the running line:\n%s", out)
	}
	if !strings.Contains(out, "[cells] 1/1 done") {
		t.Errorf("progress stream lacks the completion line:\n%s", out)
	}

	// Warm rerun: the cell must be flagged as cached.
	progress.Reset()
	r2 := New(cfg, &buf)
	if err := r2.EnableCache(dir); err != nil {
		t.Fatal(err)
	}
	if err := r2.Run("fig4"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "(1 cached)") {
		t.Errorf("cached rerun not flagged:\n%s", progress.String())
	}
}

// TestMonitorHorizonSafety exercises the cross-thread horizon reads
// under -race: parallel cells while the monitor formats status lines.
func TestMonitorHorizonSafety(t *testing.T) {
	cfg := obsConfig(9)
	cfg.Jobs = 4
	cfg.Progress = io.Discard
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.Run("fig7"); err != nil {
		t.Fatal(err)
	}
}
