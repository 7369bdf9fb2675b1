package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ptperf/internal/netem"
	"ptperf/internal/obs"
)

// This file wires the observability layer (internal/obs) into the
// Runner: compute (cell.go) attaches a metric recorder to every cell
// when Config.MetricsInterval is set, consults the content-addressed
// result cache when EnableCache was called, and reports the cell's
// virtual-time horizon to the progress monitor; the sinks and exports
// live here.

// EnableCache attaches a content-addressed result cache rooted at dir
// (created if needed). Call before submitting any task.
func (r *Runner) EnableCache(dir string) error {
	c, err := obs.OpenCache(dir)
	if err != nil {
		return err
	}
	r.cache = c
	return nil
}

// CacheStats reports this run's cache traffic (zero when no cache is
// attached).
func (r *Runner) CacheStats() obs.CacheStats {
	if r.cache == nil {
		return obs.CacheStats{}
	}
	return r.cache.Stats()
}

func (r *Runner) setTimeline(key string, tl *obs.Timeline) {
	if tl == nil {
		return
	}
	r.omu.Lock()
	r.timelines[key] = tl
	r.omu.Unlock()
}

// addSimStats adds one measured world's scheduler counters; the timer
// heap's high-water mark is the deepest any world's heap went.
func (r *Runner) addSimStats(st netem.Stats) {
	r.omu.Lock()
	r.simStats.Spawns += st.Spawns
	r.simStats.Parks += st.Parks
	r.simStats.Events += st.Events
	r.simStats.ReadyEvents += st.ReadyEvents
	r.simStats.TimersHigh = max(r.simStats.TimersHigh, st.TimersHigh)
	r.omu.Unlock()
}

// SimStats returns the scheduler counters (netem.Clock.Stats) of every
// world this Runner has built and measured, summed (TimersHigh is their
// maximum); a cell answered from the cache adds nothing.
func (r *Runner) SimStats() netem.Stats {
	r.omu.Lock()
	defer r.omu.Unlock()
	return r.simStats
}

// Timelines returns the recorded (or cache-restored) metric timelines
// in canonical cell-key order. Empty unless MetricsInterval is set.
func (r *Runner) Timelines() []obs.CellTimeline {
	r.omu.Lock()
	defer r.omu.Unlock()
	keys := make([]string, 0, len(r.timelines))
	for k := range r.timelines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]obs.CellTimeline, 0, len(keys))
	for _, k := range keys {
		out = append(out, obs.CellTimeline{Cell: k, Timeline: r.timelines[k]})
	}
	return out
}

// Sections renders every experiment Run rendered again, each into its own
// buffer, in run order. Cells are memoised, so this reads no cache and
// builds no world; call it after Run returns, as WriteArtifacts does.
func (r *Runner) Sections() []obs.Section {
	r.omu.Lock()
	ran := r.ran
	r.omu.Unlock()
	out := make([]obs.Section, 0, len(ran))
	for _, e := range ran {
		var b strings.Builder
		r.render(&b, e)
		out = append(out, obs.Section{ID: e.ID, Title: e.Title, Body: b.String()})
	}
	return out
}

// configSummary renders the campaign configuration lines the HTML
// report heads with.
func (r *Runner) configSummary() string {
	c := r.cfg
	return fmt.Sprintf(
		"seed=%d bytescale=%g sites=%d repeats=%d attempts=%d sizes=%v\ntransports=%s\nscenario=%q sequential=%v metrics-interval=%s",
		c.Seed, c.ByteScale, c.Sites, c.Repeats, c.FileAttempts, c.FileSizesMB,
		strings.Join(c.Transports, ","), c.Scenario, c.Sequential, c.MetricsInterval)
}

// WriteArtifacts writes the run's export artifacts after Run returns:
// metricsDir (when non-empty) receives metrics.prom, reportPath (when
// non-empty) the self-contained HTML report. historyPath, when naming
// an existing JSONL benchmark-history file, adds the perf-trajectory
// section.
func (r *Runner) WriteArtifacts(metricsDir, reportPath, historyPath string) error {
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			return fmt.Errorf("harness: metrics dir: %w", err)
		}
		var b bytes.Buffer
		obs.WritePrometheus(&b, r.Timelines())
		if err := os.WriteFile(filepath.Join(metricsDir, "metrics.prom"), b.Bytes(), 0o644); err != nil {
			return fmt.Errorf("harness: write metrics: %w", err)
		}
	}
	if reportPath != "" {
		rep := obs.HTMLReport{
			Title:    "PTPerf campaign report",
			Config:   r.configSummary(),
			Sections: r.Sections(),
			Cells:    r.Timelines(),
		}
		if historyPath != "" {
			if f, err := os.Open(historyPath); err == nil {
				rep.History = obs.ParseBenchHistory(f)
				f.Close()
			}
		}
		f, err := os.Create(reportPath)
		if err != nil {
			return fmt.Errorf("harness: write report: %w", err)
		}
		if err := obs.WriteHTML(f, rep); err != nil {
			f.Close()
			return fmt.Errorf("harness: write report: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("harness: write report: %w", err)
		}
	}
	return nil
}
