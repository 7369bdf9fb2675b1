package harness

import (
	"fmt"
	"time"

	"ptperf/internal/faults"
	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// This file implements "-exp churn": the churn-resilience sweep over
// the relay-failure scenario family. Each cell is one independent world
// on the same seed stream, so topology, catalogs and relay draws
// are identical across columns and the only difference is the fault
// plan (none at the baseline). It crosses the methods {tor, obfs4,
// webtunnel, snowflake} with {none, slow, fast} churn, every method
// running resumable bulk downloads concurrently on the world's clock
// while relays crash, links flap and descriptors churn underneath them,
// and reports download-time and TTFB distributions, success rates, and
// the per-method recovery-cost breakdown with paired t-tests against
// the fault-free baseline.

// churnMethods are the measured access methods: vanilla Tor plus one
// transport from each integration set that survives a mid-path failure
// differently (set-1 bridges keep their guard; snowflake's set-2 proxy
// re-splices).
var churnMethods = []string{"tor", "obfs4", "webtunnel", "snowflake"}

const (
	// churnFileMB is the per-download file size (paper-scale MB): big
	// enough that a download spans several fast-churn periods, so relay
	// crashes land mid-transfer instead of between attempts.
	churnFileMB = 50
	// churnAttempts is the number of resumable downloads per method.
	churnAttempts = 8
	// churnMaxResumes bounds extra transfer legs per download.
	churnMaxResumes = 8
	// churnThink is the idle gap between a method's downloads.
	churnThink = 2 * time.Second
	// churnFileTimeout bounds one resumed download end to end.
	churnFileTimeout = 600 * time.Second
	// churnHorizon bounds the fault plan; events past the campaign's
	// actual end stay parked on the clock and never fire.
	churnHorizon = 20 * time.Minute
)

// churnRetry is the recovery policy every Tor client of a churn world
// runs: more build attempts with exponential, jittered backoff (so a
// retry storm does not burn its whole budget inside one 10 s outage)
// and a bigger stream re-attach budget.
var churnRetry = tor.RetryPolicy{
	MaxBuildRetries:  4,
	MaxStreamRetries: 3,
	BackoffBase:      2 * time.Second,
}

// churnMethod is one method's measurements in one cell.
type churnMethod struct {
	// Times / TTFBs hold one sample per attempt (failures record the
	// file timeout, like the paper's reliability analysis).
	Times, TTFBs []float64
	// Attempts / Completed count downloads started and fully delivered.
	Attempts, Completed int
	// Resumes counts extra transfer legs across all attempts.
	Resumes int
	// Recovery is the method's client-side recovery-cost breakdown.
	Recovery tor.RecoveryStats
}

// churnCell is one churn-level cell's result.
type churnCell struct {
	Level   testbed.ChurnLevel
	Methods map[string]*churnMethod
	// Faults counts what the injector actually did in this world.
	Faults faults.Stats
}

// churnIn is the input of one churn cell.
type churnIn struct {
	Level      testbed.ChurnLevel
	Methods    []string
	Sequential bool
}

// churnCells names every churn level. All cells share one world seed;
// only the attached fault plan differs.
func (c Config) churnCells() []cell[churnIn, *churnCell] {
	var cells []cell[churnIn, *churnCell]
	for li, lv := range testbed.ChurnLevels {
		opts := c.worldOptions(streamChurn)
		opts.Retry = churnRetry
		plan := testbed.ChurnPlanFor(lv, opts, churnHorizon)
		if !plan.Empty() {
			opts.FaultSpec = &plan
		}
		cells = append(cells, cell[churnIn, *churnCell]{
			key:     fmt.Sprintf("churn:%d", li),
			opts:    opts,
			in:      churnIn{lv, churnMethods, c.Sequential},
			measure: measureChurn,
		})
	}
	return cells
}

// measureChurn runs every method's resumable downloads concurrently
// while the world's fault plan plays underneath them.
func measureChurn(w *testbed.World, in churnIn) (*churnCell, error) {
	size := w.Bytes(churnFileMB << 20)
	methods, err := testbed.ForEachMethod(w, in.Methods, in.Sequential, func(name string) (*churnMethod, error) {
		dep, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := dep.Preheat(); err != nil {
			return nil, fmt.Errorf("preheat: %w", err)
		}
		c := &fetch.Client{Net: w.Net, Dial: dep.Dial, Timeout: churnFileTimeout}
		m := &churnMethod{}
		for i := 0; i < churnAttempts; i++ {
			if i > 0 {
				w.Net.Clock().Sleep(churnThink)
				// Each attempt measures a cold path, like the bulk
				// campaign — and spreads fault exposure over circuits.
				dep.FreshCircuit()
			}
			res := c.DownloadFileResumed(w.Origin.Addr(), size, churnMaxResumes)
			m.Attempts++
			m.Resumes += res.Resumes
			if res.Complete() {
				m.Completed++
				m.Times = append(m.Times, seconds(res.Total))
				m.TTFBs = append(m.TTFBs, seconds(res.TTFB))
			} else {
				m.Times = append(m.Times, churnFileTimeout.Seconds())
				m.TTFBs = append(m.TTFBs, churnFileTimeout.Seconds())
			}
		}
		m.Recovery = dep.Recovery()
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return &churnCell{Level: in.Level, Methods: methods, Faults: w.FaultStats()}, nil
}

// runChurn renders the churn-resilience sweep.
func (r *Runner) runChurn() error {
	levels := testbed.ChurnLevels
	fmt.Fprintf(r.out, "Relay churn: %d methods × %d failure rates, resumable %d MB downloads over a failing fleet (same world seed per cell)\n\n",
		len(churnMethods), len(levels), churnFileMB)

	cells, err := waitAll(r, r.cfg.churnCells())
	if err != nil {
		return err
	}
	g := grid[*churnCell]{cells, testbed.ChurnLevelNames(), churnMethods}
	timesOf := func(c *churnCell, m string) []float64 { return c.Methods[m].Times }
	g.rows(r, "@", timesOf)
	r.writeBoxes("Download time under relay churn (s; failures count as the timeout)")
	g.rows(r, "@", func(c *churnCell, m string) []float64 { return c.Methods[m].TTFBs })
	r.writeBoxes("Time to first byte under relay churn (s)")

	t := r.table("level", "method", "attempts", "ok", "success", "resumes",
		"rebuilds", "build-timeouts", "stream-fails", "re-attaches", "abandoned", "probations")
	for _, cell := range cells {
		for _, m := range churnMethods {
			cm := cell.Methods[m]
			rec := cm.Recovery
			t.row(cell.Level.Name, m)
			t.ints(int64(cm.Attempts), int64(cm.Completed))
			t.percent(cm.Completed, cm.Attempts)
			t.ints(int64(cm.Resumes), rec.Rebuilds, rec.BuildTimeouts,
				rec.StreamFailures, rec.ReAttaches, rec.Abandoned, rec.GuardProbations)
		}
	}
	t.write(r.out, "Recovery cost per method (client-side circuit rebuilds and stream re-attaches)")
	fmt.Fprintln(r.out)

	t = r.table("level", "crashes", "restarts", "flaps-down", "flaps-up", "withdrawn", "rejoined", "skipped")
	for _, cell := range cells {
		st := cell.Faults
		t.row(cell.Level.Name)
		t.ints(st.Crashes, st.Restarts, st.FlapsDown, st.FlapsUp, st.Withdrawn, st.Rejoined, st.Skipped)
	}
	t.write(r.out, "Fault injector transitions per level")
	fmt.Fprintln(r.out)

	g.writePairsVsFirst(r, "Paired t-tests, download time per churn level vs fault-free (positive mean-diff = churn slower)", timesOf)

	fmt.Fprintln(r.out, "Expected: downloads survive churn through resume legs and circuit rebuilds — success stays high while recovery counters, not failure rates, absorb the damage.")
	fmt.Fprintln(r.out)
	return nil
}
