package harness

import (
	"fmt"
	"sort"

	"ptperf/internal/censor"
	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
)

// This file implements the censor-scenario experiments: "scenario:<name>"
// runs one named interference scenario across the configured transports,
// and "sweep" crosses {transports} × {scenarios}, reporting per-scenario
// access-time boxes, reliability splits, censor interference counters,
// and paired t-tests against the clean baseline. Every scenario world is
// built from the same seed, so the only difference between columns is
// the interference itself — which is what makes the paired comparisons
// meaningful.
//
// Each scenario cell is one independent world task: the sweep submits
// every cell to the shard executor up front and joins them in canonical
// scenario order, so -jobs N runs the whole matrix N worlds at a time
// with byte-identical reports.

// scenarioResult holds one method's access outcomes under one scenario.
// Times is aligned by site index (failures recorded as the page
// timeout), keeping vectors pairable across scenarios and methods.
type scenarioResult struct {
	Name   string
	Times  []float64
	OK     int
	Failed int
}

// scenarioCell is one sweep cell's result.
type scenarioCell struct {
	Data  map[string]*scenarioResult
	Stats censor.Stats
}

// sweepScenarios orders the sweep: the clean baseline first, then the
// built-in narrative order, then any extra registered scenarios.
func sweepScenarios() []string {
	order := []string{"clean", "throttle-surge", "lossy-path", "bridge-block", "snowflake-surge"}
	seen := make(map[string]bool, len(order))
	for _, n := range order {
		seen[n] = true
	}
	var extra []string
	for _, n := range censor.Names() {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(order, extra...)
}

// sweepCell names the world of one scenario. All scenarios share one
// world seed stream, so topology, catalogs and relay draws are
// identical across the sweep.
func (c Config) sweepCell(name string) cell[methodsIn, *scenarioCell] {
	opts := c.worldOptions(streamScenario)
	opts.Scenario = name
	return cell[methodsIn, *scenarioCell]{
		key:     "scenario:" + name,
		opts:    opts,
		in:      methodsIn{c.Transports, c.Sequential},
		measure: scenarioAccess,
	}
}

// sweepCells names every sweep cell in sweepScenarios order.
func (c Config) sweepCells() []cell[methodsIn, *scenarioCell] {
	var cells []cell[methodsIn, *scenarioCell]
	for _, name := range sweepScenarios() {
		cells = append(cells, c.sweepCell(name))
	}
	return cells
}

// scenarioAccess measures website access for every method under the
// world's scenario.
func scenarioAccess(w *testbed.World, in methodsIn) (*scenarioCell, error) {
	sites := sitePaths(w)
	data, err := testbed.ForEachMethod(w, in.Methods, in.Sequential, func(method string) (*scenarioResult, error) {
		d, err := w.Deployment(method)
		if err != nil {
			return nil, err
		}
		// A failed preheat is not fatal: under endpoint blocking the
		// accesses themselves record the failure.
		_ = d.Preheat()
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
		res := &scenarioResult{Name: method}
		for _, site := range sites {
			got := c.Get(w.Origin.Addr(), site, false)
			if got.Err != nil || !got.Complete() {
				res.Times = append(res.Times, pageTimeout.Seconds())
				res.Failed++
				continue
			}
			res.Times = append(res.Times, seconds(got.Total))
			res.OK++
		}
		// Park the transport's tunnels (see measureAccess).
		d.FreshCircuit()
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := &scenarioCell{Data: data}
	if w.Censor != nil {
		out.Stats = w.Censor.Stats()
	}
	return out, nil
}

// writeScenarioReport prints one scenario's boxes, reliability split and
// interference counters.
func (r *Runner) writeScenarioReport(name string, sc *scenarioCell) {
	data, st := sc.Data, sc.Stats
	order := orderedMethods(r.cfg.Transports)
	boxRows(r, data, func(d *scenarioResult) []float64 { return d.Times }, order)
	r.writeBoxes(fmt.Sprintf("Website access time under scenario %q (s; failures count as the %gs timeout)",
		name, pageTimeout.Seconds()))

	t := r.table("method", "ok", "failed", "ok%")
	for _, m := range order {
		d, ok := data[m]
		if !ok {
			continue
		}
		total := d.OK + d.Failed
		if total == 0 {
			continue
		}
		t.row(m)
		t.ints(int64(d.OK), int64(d.Failed))
		t.percent(d.OK, total)
	}
	t.write(r.out, fmt.Sprintf("Access reliability under %q", name))
	fmt.Fprintf(r.out, "censor: blocked-dials=%d flows-cut=%d resets=%d loss-events=%d throttled-segments=%d\n\n",
		st.BlockedDials, st.FlowsCut, st.Resets, st.LossEvents, st.ThrottledSegments)
}

// runScenario reproduces one named scenario across the configured
// transports.
func (r *Runner) runScenario(name string) error {
	if _, err := censor.Lookup(name); err != nil {
		return err
	}
	sc, err := submit(r, r.cfg.sweepCell(name)).Wait()
	if err != nil {
		return err
	}
	r.writeScenarioReport(name, sc)
	return nil
}

// runSweep crosses {transports} × {scenarios}: per-scenario reports plus
// paired t-tests of every transport against its clean baseline. All
// cells run concurrently on the shard executor; reports join in
// canonical scenario order.
func (r *Runner) runSweep() error {
	names := sweepScenarios()
	fmt.Fprintf(r.out, "Scenario sweep: %d transports × %d scenarios (same world seed per scenario)\n\n",
		len(r.cfg.Transports), len(names))
	cells, err := waitAll(r, r.cfg.sweepCells())
	if err != nil {
		return err
	}
	for i, name := range names {
		r.writeScenarioReport(name, cells[i])
	}
	g := grid[*scenarioCell]{cells, names, orderedMethods(r.cfg.Transports)}
	g.writePairsVsFirst(r, "Paired t-tests, access time per scenario vs clean (positive mean-diff = scenario slower)",
		func(c *scenarioCell, m string) []float64 { return c.Data[m].Times })
	return nil
}
