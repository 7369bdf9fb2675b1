package harness

import (
	"fmt"
	"strconv"

	"ptperf/internal/censor"
	"ptperf/internal/fetch"
	"ptperf/internal/geo"
	"ptperf/internal/pt"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// Every experiment that measures is split in two: a Config method names
// its cells (world options, declared inputs, a top-level measure
// function) and the run* method joins them and renders the report.
// Prefetching submits every cell before any render, so "-exp all" keeps
// all -jobs cores busy while reports still come out strictly in paper
// order.

// boxRows adds the standard per-method box rows of a dataset to r's box
// table: one row per method of order that the dataset holds.
func boxRows[D any](r *Runner, data map[string]D, pick func(D) []float64, order []string) {
	for _, name := range order {
		if d, ok := data[name]; ok {
			r.box(name, pick(d))
		}
	}
}

// sampleRows adds one box row per method from per-method samples.
func (r *Runner) sampleRows(samples map[string][]float64, methods []string) {
	for _, m := range methods {
		r.box(m, samples[m])
	}
}

func times(d *accessData) []float64   { return d.Times }
func speedIx(d *accessData) []float64 { return d.SpeedIndexes }

// runTable1 prints the campaign inventory in the shape of Table 1.
func (r *Runner) runTable1() error {
	c := r.cfg
	sites := 2 * c.Sites
	t := r.table("measurement type", "measurements", "target")
	methods := len(c.Transports)
	// The selenium rows count the browser-capable subset, not
	// methods-1: that shortcut assumed camoufler is always in the
	// configured set.
	selenium := len(c.seleniumMethods())
	t.row("Website Download (curl)", strconv.Itoa(sites*c.Repeats*methods), fmt.Sprintf("Tranco top-%d & CBL-%d", c.Sites, c.Sites))
	t.row("Website Download (selenium)", strconv.Itoa(sites*c.Repeats*selenium), fmt.Sprintf("Tranco top-%d & CBL-%d", c.Sites, c.Sites))
	t.row("File Downloads (curl)", strconv.Itoa(len(c.FileSizesMB)*c.FileAttempts*methods), fmt.Sprintf("%v MB", c.FileSizesMB))
	t.row("Speed Index", strconv.Itoa(sites*c.Repeats*selenium), fmt.Sprintf("Tranco top-%d", c.Sites))
	t.row("PT Overhead", strconv.Itoa(c.Sites*len(testbed.OverheadPTs)), fmt.Sprintf("Tranco top-%d", c.Sites))
	t.row("Location Variation", strconv.Itoa(3*3*c.Sites*c.Repeats), "Tranco & CBL")
	t.write(r.out, "")
	return nil
}

// runTable2 prints the appendix's 28-candidate comparison.
func (r *Runner) runTable2() error {
	t := r.table("name", "status", "code", "functional", "integratable", "evaluated", "technology", "challenge")
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, c := range pt.Candidates {
		t.row(c.Name, c.Status.String(), yn(c.CodeAvailable), yn(c.Functional),
			yn(c.Integratable), yn(c.Evaluated), c.Technology, c.Challenge)
	}
	t.write(r.out, "")
	fmt.Fprintf(r.out, "\n%d of %d candidates were functional, integratable and evaluated.\n",
		pt.EvaluatedCount(), len(pt.Candidates))
	return nil
}

// methodsIn is the input of the cells that fan one measurement out
// over a method list.
type methodsIn struct {
	Methods    []string
	Sequential bool
}

// accessSamples measures plain curl access to the Tranco sites for
// every method of one world, returning per-method aligned sample
// vectors. It is the measurement of the medium and location cells.
func accessSamples(w *testbed.World, in methodsIn) (map[string][]float64, error) {
	sites := firstSites(w, len(w.Tranco.Sites))
	return testbed.ForEachMethod(w, in.Methods, in.Sequential, func(name string) ([]float64, error) {
		d, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := d.Preheat(); err != nil {
			return nil, err
		}
		return getAll(w, d.Dial, sites), nil
	})
}

// getAll fetches each site once with curl and returns the access times.
func getAll(w *testbed.World, dial testbed.Dialer, sites []string) []float64 {
	c := &fetch.Client{Net: w.Net, Dial: dial, Timeout: pageTimeout}
	var xs []float64
	for _, site := range sites {
		xs = append(xs, seconds(c.Get(w.Origin.Addr(), site, false).Total))
	}
	return xs
}

// grid is a joined sweep: cells[i] is the world labelled labels[i], and
// every cell measured the same methods.
type grid[C any] struct {
	cells   []C
	labels  []string
	methods []string
}

// rows adds one box row per (cell, method) to r's box table, cells
// outermost, labelled method+sep+label.
func (g grid[C]) rows(r *Runner, sep string, pick func(C, string) []float64) {
	for i, c := range g.cells {
		for _, m := range g.methods {
			r.box(m+sep+g.labels[i], pick(c, m))
		}
	}
}

// writePairsVsFirst prints a t-test table of each method's paired test
// of every later cell against the first (the sweep's baseline), each
// row written as its test is run; unpairable vectors are skipped.
func (g grid[C]) writePairsVsFirst(r *Runner, title string, pick func(C, string) []float64) {
	t := r.pairTable()
	for i, c := range g.cells[1:] {
		for _, m := range g.methods {
			res, err := stats.PairedT(pick(c, m), pick(g.cells[0], m))
			if err != nil {
				continue
			}
			t.row()
			t.buf = append(append(append(append(t.buf, m...), '@'), g.labels[i+1]...), '-')
			t.cell(g.labels[0])
			t.pair(res)
		}
	}
	t.write(r.out, title)
	fmt.Fprintln(r.out)
}

func sampleOf(c map[string][]float64, m string) []float64 { return c[m] }

// samplesCell names one world measured by accessSamples.
func (c Config) samplesCell(key string, opts testbed.Options, methods []string) cell[methodsIn, map[string][]float64] {
	return cell[methodsIn, map[string][]float64]{
		key:     key,
		opts:    opts,
		in:      methodsIn{methods, c.Sequential},
		measure: accessSamples,
	}
}

// mediumMethods and mediumKinds are the §4.7 grid.
var (
	mediumMethods = []string{"tor", "obfs4", "meek", "dnstt", "cloak"}
	mediumKinds   = []geo.Medium{geo.Wired, geo.Wireless}
)

// mediumCells names the §4.7 worlds, one per access medium.
func (c Config) mediumCells() []cell[methodsIn, map[string][]float64] {
	var cells []cell[methodsIn, map[string][]float64]
	for mi, medium := range mediumKinds {
		opts := c.worldOptions(streamMedium, int64(mi))
		opts.Medium = medium
		opts.ClientLocation = geo.Toronto
		cells = append(cells, c.samplesCell("medium:"+medium.String(), opts, mediumMethods))
	}
	return cells
}

// runMedium reproduces §4.7: the same website-access measurement over a
// wired and a wireless (campus WiFi) client, expecting no change in the
// between-transport trend.
func (r *Runner) runMedium() error {
	cells, err := waitAll(r, r.cfg.mediumCells())
	if err != nil {
		return err
	}
	g := grid[map[string][]float64]{cells: cells, methods: mediumMethods}
	for _, medium := range mediumKinds {
		g.labels = append(g.labels, medium.String())
	}
	g.rows(r, "/", sampleOf)
	r.writeBoxes("Website access time by access medium (s)")
	fmt.Fprintln(r.out, "Expected: the between-transport ordering is unchanged by the medium (§4.7).")
	return nil
}

// runFig2a prints the curl website-access box plots.
func (r *Runner) runFig2a() error {
	data, err := submit(r, r.cfg.curlCell()).Wait()
	if err != nil {
		return err
	}
	boxRows(r, data, times, orderedMethods(r.cfg.Transports))
	r.writeBoxes("Website access time via curl (seconds, per-site means over Tranco+CBL)")
	return nil
}

// runFig2b prints the selenium page-load box plots.
func (r *Runner) runFig2b() error {
	data, err := submit(r, r.cfg.seleniumCell()).Wait()
	if err != nil {
		return err
	}
	boxRows(r, data, times, orderedMethods(r.cfg.Transports))
	r.writeBoxes("Website access time via selenium (seconds; camoufler unsupported)")
	// The headline §4.2.1 comparison: PTs whose bridge is the guard can
	// beat vanilla Tor.
	if tor, ok := data["tor"]; ok {
		for _, name := range []string{"obfs4", "webtunnel", "conjure"} {
			if d, ok := data[name]; ok {
				if res, err := stats.PairedT(tor.Times, d.Times); err == nil {
					fmt.Fprintf(r.out, "paired t (tor−%s): t=%s P=%s CI=[%s, %s] mean-diff=%s\n",
						name, fixed(res.T, 2), appendP(nil, res.P), fixed(res.CILower, 2), fixed(res.CIUpper, 2), fixed(res.MeanDiff, 2))
				}
			}
		}
		fmt.Fprintln(r.out)
	}
	return nil
}

// fixedCircuitIn is the input of the fig3/fig4 cells: Iters circuits,
// with the middle/exit pair pinned per iteration or left to Tor.
type fixedCircuitIn struct {
	Iters   int
	PinPair bool
}

// fixedCircuitData is the result of the fig3/fig4 cells.
type fixedCircuitData struct {
	Methods []string
	Samples map[string][]float64
}

// measureFixedCircuit measures the rig's three methods over pinned
// circuits; aligned by (iteration, site).
func measureFixedCircuit(w *testbed.World, in fixedCircuitIn) (*fixedCircuitData, error) {
	rig, err := w.NewFixedCircuitRig()
	if err != nil {
		return nil, err
	}
	sites := firstSites(w, 5) // the paper samples five representative sites
	out := map[string][]float64{}
	for it := 0; it < in.Iters; it++ {
		var m, e *tor.Descriptor
		if in.PinPair {
			m, e = rig.PickPair(it)
		}
		clients, err := rig.Clients(m, e)
		if err != nil {
			return nil, err
		}
		for _, method := range rig.Methods() {
			cl := clients[method]
			if err := cl.Preheat(); err != nil {
				return nil, fmt.Errorf("%s preheat: %w", method, err)
			}
			out[method] = append(out[method], getAll(w, testbed.TorDialer(cl), sites)...)
			cl.NewCircuit()
		}
	}
	return &fixedCircuitData{Methods: rig.Methods(), Samples: out}, nil
}

// fixedCircuitCell names a fixed-circuit rig world.
func (c Config) fixedCircuitCell(key string, stream int64, iters int, pinPair bool) cell[fixedCircuitIn, *fixedCircuitData] {
	return cell[fixedCircuitIn, *fixedCircuitData]{
		key:     key,
		opts:    c.worldOptions(stream),
		in:      fixedCircuitIn{iters, pinPair},
		measure: measureFixedCircuit,
	}
}

func (c Config) fig3Cell() cell[fixedCircuitIn, *fixedCircuitData] {
	return c.fixedCircuitCell("fig3", streamFig3, max(c.Repeats*3, 4), true)
}

func (c Config) fig4Cell() cell[fixedCircuitIn, *fixedCircuitData] {
	return c.fixedCircuitCell("fig4", streamFig4, max(c.Repeats*2, 3), false)
}

// runFig3 prints the fixed-circuit boxes (3a) and the ECDF of per-site
// absolute differences (3b).
func (r *Runner) runFig3() error {
	fc, err := submit(r, r.cfg.fig3Cell()).Wait()
	if err != nil {
		return err
	}
	samples := fc.Samples
	r.sampleRows(samples, fc.Methods)
	r.writeBoxes("Fixed circuit (same guard/middle/exit) website access time (s)")

	for _, m := range []string{"obfs4", "webtunnel"} {
		res, err := stats.PairedT(samples[m], samples["tor"])
		if err == nil {
			fmt.Fprintf(r.out, "paired t (%s−tor): t=%s P=%s CI=[%s, %s]\n", m, fixed(res.T, 2), appendP(nil, res.P), fixed(res.CILower, 2), fixed(res.CIUpper, 2))
		}
	}
	r.curve("obfs4-vs-tor", stats.AbsDiffs(samples["obfs4"], samples["tor"]))
	r.curve("webtunnel-vs-tor", stats.AbsDiffs(samples["webtunnel"], samples["tor"]))
	r.writeECDF("\nECDF of |PT − Tor| per access (s)")
	return nil
}

// runFig4 prints the fixed-guard / variable middle+exit comparison.
func (r *Runner) runFig4() error {
	fc, err := submit(r, r.cfg.fig4Cell()).Wait()
	if err != nil {
		return err
	}
	r.sampleRows(fc.Samples, []string{"tor", "obfs4"})
	r.writeBoxes("Fixed guard, Tor-selected middle/exit: website access time (s)")
	return nil
}

// runFig5 prints mean download time per file size, excluding methods
// that completed a size fewer than two times (as the paper does).
func (r *Runner) runFig5() error {
	data, err := submit(r, r.cfg.filesCell()).Wait()
	if err != nil {
		return err
	}
	t := r.table("method")
	for _, mb := range r.cfg.FileSizesMB {
		t.buf = strconv.AppendInt(t.buf, int64(mb), 10)
		t.cell("MB")
	}
	for _, name := range orderedMethods(r.cfg.Transports) {
		fd, ok := data[name]
		if !ok {
			continue
		}
		usable := false
		for _, mb := range r.cfg.FileSizesMB {
			_, n := fd.meanTime(mb)
			usable = usable || n >= 2 || n >= 1 && r.cfg.FileAttempts < 2
		}
		t.row(name)
		if !usable {
			t.cell("excluded (unreliable, see fig8)")
			continue
		}
		for _, mb := range r.cfg.FileSizesMB {
			if mean, n := fd.meanTime(mb); n >= 1 {
				t.fixed(1, mean)
			} else {
				t.cell("-")
			}
		}
	}
	t.write(r.out, "Mean complete-download time per file size (seconds)")
	fmt.Fprintln(r.out)
	return nil
}

// runFig6 prints the TTFB ECDF.
func (r *Runner) runFig6() error {
	data, err := submit(r, r.cfg.curlCell()).Wait()
	if err != nil {
		return err
	}
	for _, name := range orderedMethods(r.cfg.Transports) {
		if d, ok := data[name]; ok {
			r.curve(name, d.TTFBs)
		}
	}
	r.writeECDF("Time to first byte, ECDF quantiles (s)")
	return nil
}

// fig7Methods and fig7Locations are the paper's §4.5 grid.
var (
	fig7Methods   = []string{"obfs4", "meek", "snowflake"}
	fig7Locations = []geo.Location{geo.Bangalore, geo.London, geo.Toronto}
)

// fig7Cells names the location worlds, one per client city.
func (c Config) fig7Cells() []cell[methodsIn, map[string][]float64] {
	var cells []cell[methodsIn, map[string][]float64]
	for li, loc := range fig7Locations {
		opts := c.worldOptions(streamFig7, int64(li))
		opts.ClientLocation = loc
		cells = append(cells, c.samplesCell("fig7:"+loc.Short(), opts, fig7Methods))
	}
	return cells
}

// runFig7 measures meek/obfs4/snowflake from the paper's three client
// cities — one independent world per city, all three in flight at once.
func (r *Runner) runFig7() error {
	cells, err := waitAll(r, r.cfg.fig7Cells())
	if err != nil {
		return err
	}
	g := grid[map[string][]float64]{cells: cells, methods: fig7Methods}
	for _, loc := range fig7Locations {
		g.labels = append(g.labels, loc.Short())
	}
	g.rows(r, "@", sampleOf)
	r.writeBoxes("Website access time by client location (s)")
	return nil
}

// runFig8 prints reliability: the complete/partial/failed split (8a)
// and the downloaded-fraction ECDF for the three unreliable PTs (8b).
func (r *Runner) runFig8() error {
	data, err := submit(r, r.cfg.filesCell()).Wait()
	if err != nil {
		return err
	}
	t := r.table("method", "complete", "partial", "failed", "complete%")
	for _, name := range orderedMethods(r.cfg.Transports) {
		fd, ok := data[name]
		if !ok {
			continue
		}
		c, p, f := fd.counts()
		total := c + p + f
		if total == 0 {
			continue
		}
		t.row(name)
		t.ints(int64(c), int64(p), int64(f))
		t.percent(c, total)
	}
	t.write(r.out, "File-download reliability per method")
	fmt.Fprintln(r.out)

	for _, name := range []string{"meek", "dnstt", "snowflake"} {
		if fd, ok := data[name]; ok {
			r.curve(name, fd.fractions())
		}
	}
	r.writeECDF("Downloaded fraction per attempt, ECDF quantiles")
	return nil
}

// fig9Cell names the pinned-circuit overhead world.
func (c Config) fig9Cell() cell[methodsIn, map[string][]float64] {
	return cell[methodsIn, map[string][]float64]{
		key:     "fig9",
		opts:    c.worldOptions(streamFig9),
		in:      methodsIn{testbed.OverheadPTs, c.Sequential},
		measure: measureOverhead,
	}
}

// measureOverhead returns, per transport, the time difference to
// vanilla Tor over an identical circuit for each Tranco site.
func measureOverhead(w *testbed.World, in methodsIn) (map[string][]float64, error) {
	sites := firstSites(w, len(w.Tranco.Sites))
	return testbed.ForEachMethod(w, in.Methods, in.Sequential, func(name string) ([]float64, error) {
		rig, err := w.NewOverheadRig(name, int64(len(name))*13)
		if err != nil {
			return nil, err
		}
		var diffs []float64
		for _, site := range sites {
			torC := &fetch.Client{Net: w.Net, Dial: rig.TorDial, Timeout: pageTimeout}
			ptC := &fetch.Client{Net: w.Net, Dial: rig.PTDial, Timeout: pageTimeout}
			tTor := torC.Get(w.Origin.Addr(), site, false)
			tPT := ptC.Get(w.Origin.Addr(), site, false)
			diffs = append(diffs, seconds(tPT.Total)-seconds(tTor.Total))
		}
		return diffs, nil
	})
}

// runFig9 prints per-transport overhead over an identical pinned
// circuit: positive means the PT added time over vanilla Tor.
func (r *Runner) runFig9() error {
	samples, err := submit(r, r.cfg.fig9Cell()).Wait()
	if err != nil {
		return err
	}
	r.sampleRows(samples, testbed.OverheadPTs)
	r.writeBoxes("PT − vanilla Tor time difference on an identical circuit (s)")
	return nil
}

// snowflakeAccess measures snowflake website access in the current load
// state of its own world.
func snowflakeAccess(w *testbed.World, nSites int) ([]float64, error) {
	d, err := w.Deployment("snowflake")
	if err != nil {
		return nil, err
	}
	d.FreshCircuit()
	// Under heavy churn a build can land on a dying volunteer; retry a
	// few times like a real client would.
	for attempt := 0; attempt < 5; attempt++ {
		if err = d.Preheat(); err == nil {
			break
		}
		d.FreshCircuit()
	}
	if err != nil {
		return nil, err
	}
	return getAll(w, d.Dial, firstSites(w, nSites)), nil
}

// surgePhases is the §5.3 snowflake load timeline, owned by the censor
// scenario registry (the snowflake-surge scenario plays the same phases
// on the virtual clock; figures 10 and 12 step the same table).
var surgePhases = censor.SurgePhases

// manualLoadOptions is worldOptions for the figures that step load
// phases by hand (10 and 12): a scenario that carries its own phase
// timeline is dropped there, because the armed timers would override
// the manual SetLoad stepping mid-measurement.
func (c Config) manualLoadOptions(stream int64) testbed.Options {
	opts := c.worldOptions(stream)
	if opts.Scenario != "" {
		if sc, err := censor.Lookup(opts.Scenario); err == nil && len(sc.Phases) > 0 {
			opts.Scenario = ""
		}
	}
	return opts
}

// surgeAccess is the fig10 cell result.
type surgeAccess struct {
	Pre, Post []float64
}

// fig10Cell names the §5.3 surge world. Its measurement reads nothing
// of the Config that the world does not carry.
func (c Config) fig10Cell() cell[struct{}, *surgeAccess] {
	return cell[struct{}, *surgeAccess]{
		key:     "fig10",
		opts:    c.manualLoadOptions(streamFig10),
		measure: measureSurge,
	}
}

// measureSurge measures snowflake access to the Tranco sites before and
// after the September load step.
func measureSurge(w *testbed.World, _ struct{}) (*surgeAccess, error) {
	d, err := w.Deployment("snowflake")
	if err != nil {
		return nil, err
	}
	d.Snowflake().SetLoad(surgePhases[0].Util, surgePhases[0].Lifetime)
	pre, err := snowflakeAccess(w, len(w.Tranco.Sites))
	if err != nil {
		return nil, err
	}
	d.Snowflake().SetLoad(surgePhases[1].Util, surgePhases[1].Lifetime)
	post, err := snowflakeAccess(w, len(w.Tranco.Sites))
	if err != nil {
		return nil, err
	}
	return &surgeAccess{Pre: pre, Post: post}, nil
}

// runFig10 prints the snowflake user-count timeline (10a, from the load
// model) and access time before/after the surge (10b).
func (r *Runner) runFig10() error {
	t := r.table("period", "users", "proxy-utilization", "mean-proxy-lifetime")
	base := 20000.0
	for _, lv := range surgePhases {
		users := int(base * (1 + float64(6*lv.Util)))
		t.row(lv.Label, strconv.Itoa(users), fixed(lv.Util, 2), lv.Lifetime.String())
	}
	t.write(r.out, "Modeled snowflake daily users (relative load timeline)")
	fmt.Fprintln(r.out)

	surge, err := submit(r, r.cfg.fig10Cell()).Wait()
	if err != nil {
		return err
	}
	r.box("pre-September", surge.Pre)
	r.box("post-September", surge.Post)
	r.writeBoxes("Snowflake website access time before/after the surge (s)")
	if res, err := stats.PairedT(surge.Pre, surge.Post); err == nil {
		fmt.Fprintf(r.out, "paired t (pre−post): t=%s P=%s CI=[%s, %s] mean-diff=%s\n\n",
			fixed(res.T, 2), appendP(nil, res.P), fixed(res.CILower, 2), fixed(res.CIUpper, 2), fixed(res.MeanDiff, 2))
	}
	return nil
}

// runFig11 prints the browsertime speed-index boxes.
func (r *Runner) runFig11() error {
	data, err := submit(r, r.cfg.seleniumCell()).Wait()
	if err != nil {
		return err
	}
	boxRows(r, data, speedIx, orderedMethods(r.cfg.Transports))
	r.writeBoxes("Speed index (seconds; camoufler unsupported)")
	return nil
}

// labeledSamples is one labeled sample vector of a cell result.
type labeledSamples struct {
	Label string
	Xs    []float64
}

// fig12Cell names the monthly-monitoring world.
func (c Config) fig12Cell() cell[struct{}, []labeledSamples] {
	return cell[struct{}, []labeledSamples]{
		key:     "fig12",
		opts:    c.manualLoadOptions(streamFig12),
		measure: measureMonthly,
	}
}

// measureMonthly steps the surge phases in sequence on one snowflake
// deployment, sampling half the Tranco sites (at least four sites) per
// phase.
func measureMonthly(w *testbed.World, _ struct{}) ([]labeledSamples, error) {
	d, err := w.Deployment("snowflake")
	if err != nil {
		return nil, err
	}
	n := max(len(w.Tranco.Sites)/2, 4)
	var series []labeledSamples
	for _, lv := range surgePhases {
		if lv.Label == "post-Sept-2022" {
			continue // fig12 shows pre + the monthly series
		}
		d.Snowflake().SetLoad(lv.Util, lv.Lifetime)
		xs, err := snowflakeAccess(w, n)
		if err != nil {
			return nil, err
		}
		series = append(series, labeledSamples{Label: lv.Label, Xs: xs})
	}
	return series, nil
}

// runFig12 prints the post-September monthly monitoring boxes.
func (r *Runner) runFig12() error {
	series, err := submit(r, r.cfg.fig12Cell()).Wait()
	if err != nil {
		return err
	}
	for _, s := range series {
		r.box(s.Label, s.Xs)
	}
	r.writeBoxes("Snowflake monthly website access time (s)")
	return nil
}

// runTables34 prints the curl paired t-test table.
func (r *Runner) runTables34() error {
	data, err := submit(r, r.cfg.curlCell()).Wait()
	if err != nil {
		return err
	}
	r.writeAllPairs("Paired t-tests, website access via curl (all method pairs)",
		data, times, orderedMethods(r.cfg.Transports))
	return nil
}

// runTables56 prints the selenium paired t-test table.
func (r *Runner) runTables56() error {
	data, err := submit(r, r.cfg.seleniumCell()).Wait()
	if err != nil {
		return err
	}
	r.writeAllPairs("Paired t-tests, website access via selenium (all method pairs)",
		data, times, orderedMethods(r.cfg.Transports))
	return nil
}

// runTable7 prints the file-download paired t-test table, pairing
// attempts by (size, attempt index).
func (r *Runner) runTable7() error {
	data, err := submit(r, r.cfg.filesCell()).Wait()
	if err != nil {
		return err
	}
	acc := map[string]*accessData{}
	//simlint:allow maprange -- per-key transform into a fresh map; keys are independent, so writes commute, and writeAllPairs orders methods explicitly.
	for name, fd := range data {
		d := &accessData{Name: name}
		for _, a := range fd.Attempts {
			d.Times = append(d.Times, a.Seconds)
		}
		acc[name] = d
	}
	r.writeAllPairs("Paired t-tests, file download times (attempts paired by size and index)",
		acc, times, orderedMethods(r.cfg.Transports))
	return nil
}

// runTables89 prints the speed-index paired t-test table.
func (r *Runner) runTables89() error {
	data, err := submit(r, r.cfg.seleniumCell()).Wait()
	if err != nil {
		return err
	}
	r.writeAllPairs("Paired t-tests, speed index (all method pairs)",
		data, speedIx, orderedMethods(r.cfg.Transports))
	return nil
}

// runTable10 prints the category-pair t-tests over the curl data.
func (r *Runner) runTable10() error {
	data, err := submit(r, r.cfg.curlCell()).Wait()
	if err != nil {
		return err
	}
	cats := pt.ByCategory()
	catData := map[string]*accessData{}
	if d, ok := data["tor"]; ok {
		catData["Tor"] = &accessData{Name: "Tor", Times: d.Times}
	}
	//simlint:allow maprange -- per-category aggregation: each key writes only its own catData entry (members iterate a slice), so writes commute; writeAllPairs fixes the output order.
	for cat, members := range cats {
		agg := &accessData{Name: cat.String()}
		var n int
		for _, m := range members {
			d, ok := data[m]
			if !ok {
				continue
			}
			if agg.Times == nil {
				agg.Times = make([]float64, len(d.Times))
			}
			for i, v := range d.Times {
				agg.Times[i] += v
			}
			n++
		}
		if n == 0 {
			continue
		}
		for i := range agg.Times {
			agg.Times[i] /= float64(n)
		}
		catData[cat.String()] = agg
	}
	order := []string{"Tor", pt.ProxyLayer.String(), pt.Tunneling.String(), pt.Mimicry.String(), pt.FullyEncrypted.String()}
	r.writeAllPairs("Paired t-tests, PT category pairs (curl access)", catData, times, order)
	return nil
}
