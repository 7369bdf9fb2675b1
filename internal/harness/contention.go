package harness

import (
	"fmt"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/plot"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// This file implements "-exp contention": the guard-contention sweep
// over the relay-overload scenario family. Each cell is one independent
// world — the same seed for every cell, so topology, catalogs and
// relay draws are identical and the only difference between columns is
// the competitor load (and, for the baseline cell, the scheduler
// policy). It crosses the shared-guard methods {tor, obfs4, webtunnel}
// with {competitor load}, reporting download-time and TTFB boxes versus
// the uncontended baseline plus the guard's queueing-delay counters,
// and re-runs the heaviest level under the FIFO scheduler to show what
// EWMA priority buys.

// contentionCell is one (level, policy) cell's result.
type contentionCell struct {
	Level  testbed.ContentionLevel
	Policy string
	// Times / TTFBs are aligned per (site, repeat) across methods and
	// levels (failures recorded as the page timeout).
	Times, TTFBs map[string][]float64
	// Sched is the shared guard's scheduler snapshot at measurement end.
	Sched tor.SchedStats
}

// contentionSites bounds the per-level site sample, like the paper's
// five representative sites in the fixed-circuit experiments.
const contentionSites = 5

// contentionIn is the input of one contention cell.
type contentionIn struct {
	Level   testbed.ContentionLevel
	Repeats int
}

// contentionCells names every level plus, last, the heaviest level
// under the pre-KIST FIFO baseline scheduler. All cells share one world
// seed.
func (c Config) contentionCells() []cell[contentionIn, *contentionCell] {
	var cells []cell[contentionIn, *contentionCell]
	for li, lv := range testbed.ContentionLevels {
		cells = append(cells, cell[contentionIn, *contentionCell]{
			key:     fmt.Sprintf("contention:%d", li),
			opts:    c.worldOptions(streamContention),
			in:      contentionIn{lv, c.Repeats},
			measure: measureContention,
		})
	}
	fifo := cells[len(cells)-1]
	fifo.key += ":fifo"
	fifo.opts.SchedPolicy = tor.SchedFIFO
	return append(cells, fifo)
}

// measureContention measures the rig's methods through one guard shared
// with the level's competitor fleet.
func measureContention(w *testbed.World, in contentionIn) (*contentionCell, error) {
	rig, err := w.NewContentionRig(in.Level)
	if err != nil {
		return nil, err
	}
	rig.Start()
	w.Net.Clock().Sleep(in.Level.RampTime())

	// Pin middle and exit so every cell measures the identical
	// circuit; only the guard's contention varies.
	middle, mok := w.Dir.Lookup("middle-0")
	exit, eok := w.Dir.Lookup("exit-0")
	if !mok || !eok {
		return nil, fmt.Errorf("harness: consensus lacks middle-0/exit-0")
	}
	clients, err := rig.Clients(middle, exit)
	if err != nil {
		return nil, err
	}
	sites := firstSites(w, contentionSites)
	out := &contentionCell{
		Level:  in.Level,
		Policy: w.Opts.SchedPolicy.String(),
		Times:  make(map[string][]float64),
		TTFBs:  make(map[string][]float64),
	}
	for _, method := range rig.Methods() {
		cl := clients[method]
		if err := cl.Preheat(); err != nil {
			return nil, fmt.Errorf("%s preheat: %w", method, err)
		}
		c := &fetch.Client{Net: w.Net, Dial: testbed.TorDialer(cl), Timeout: pageTimeout}
		for _, site := range sites {
			for rep := 0; rep < in.Repeats; rep++ {
				total, ttfb := pageTimeout.Seconds(), pageTimeout.Seconds()
				if res := c.Get(w.Origin.Addr(), site, false); res.Err == nil && res.Complete() {
					total, ttfb = seconds(res.Total), seconds(res.TTFB)
				}
				out.Times[method] = append(out.Times[method], total)
				out.TTFBs[method] = append(out.TTFBs[method], ttfb)
			}
		}
		cl.NewCircuit()
	}
	// Stop before snapshotting: with the competitor circuits torn
	// down the guard's queues are drained, so the reported counters
	// satisfy queued == flushed + dropped.
	rig.Stop()
	out.Sched = rig.GuardSched()
	return out, nil
}

// runContention renders the guard-contention sweep.
func (r *Runner) runContention() error {
	levels := testbed.ContentionLevels
	methods := []string{"tor", "obfs4", "webtunnel"}
	fmt.Fprintf(r.out, "Guard contention: %d methods × %d load levels over one shared guard (same world seed per cell)\n\n",
		len(methods), len(levels))

	all, err := waitAll(r, r.cfg.contentionCells())
	if err != nil {
		return err
	}
	cells, fifo := all[:len(levels)], all[len(levels)]
	g := grid[*contentionCell]{cells, testbed.ContentionLevelNames(), methods}
	timesOf := func(c *contentionCell, m string) []float64 { return c.Times[m] }
	g.rows(r, "@", timesOf)
	r.writeBoxes("Download time under guard contention (s; failures count as the timeout)")
	g.rows(r, "@", func(c *contentionCell, m string) []float64 { return c.TTFBs[m] })
	r.writeBoxes("Time to first byte under guard contention (s)")

	t := r.table("level", "policy", "competitors", "cells-queued", "flushed", "dropped", "mean-queue-delay", "passes")
	for _, cell := range all { // the levels, then the FIFO baseline
		st := cell.Sched
		t.row(cell.Level.Name, cell.Policy)
		t.ints(int64(cell.Level.Competitors), st.Queued, st.Flushed, st.Dropped)
		t.buf = plot.AppendFixed(t.buf, float64(st.MeanDelay())/float64(time.Millisecond), 1)
		t.cell("ms")
		t.ints(st.Passes)
	}
	t.write(r.out, "Shared-guard cell scheduler (queueing delay is what FCFS relays hid)")
	fmt.Fprintln(r.out)

	g.writePairsVsFirst(r, "Paired t-tests, download time per load level vs idle (positive mean-diff = contention slower)", timesOf)

	top := cells[len(cells)-1]
	fmt.Fprintf(r.out, "EWMA vs FIFO at %q: mean guard queueing delay %sms vs %sms",
		top.Level.Name,
		fixed(float64(top.Sched.MeanDelay())/float64(time.Millisecond), 1),
		fixed(float64(fifo.Sched.MeanDelay())/float64(time.Millisecond), 1))
	for _, m := range methods {
		res, err := stats.PairedT(fifo.Times[m], top.Times[m])
		if err != nil {
			continue
		}
		fmt.Fprintf(r.out, "; %s fifo−ewma mean-diff %ss", m, fixed(res.MeanDiff, 2))
	}
	fmt.Fprintln(r.out)
	fmt.Fprintln(r.out, "Expected: the measured (bursty) circuits pay queueing delay under FIFO that EWMA priority removes.")
	fmt.Fprintln(r.out)
	return nil
}
