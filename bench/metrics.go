package main

// metric describes one reported number. BENCHMARK.json carries name,
// unit, better and (end to end) bound; source and moves are the
// interaction map recorded in README.md.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median an end-to-end metric
	// may worsen by before a change counts as a regression.
	bound float64
	// source is "traced" or "probe" for a per-layer metric.
	source string
	// moves names the end-to-end metric and workloads this per-layer
	// metric is predicted to move.
	moves string
}

// endToEnd are the metrics a user of `ptperf -exp …` would see, all
// measured per workload with tracing off. failed_ratio is the eighth:
// the result line carries it as failed/attempted, because a metric
// that reads 0 cannot be gated by a share of its median.
//
// The bounds are sized from measurement (README.md, "Steadiness"): a
// run's value moves with the campaigns its seed draws and, for the
// times, with a shared host whose speed drifts. A bound is about three
// times the widest spread seen between ten runs at ten seeds on any
// workload, and at most the 25% the contract allows. At one seed the
// counts repeat (between two sets of runs of one commit their medians
// differ by 0-0.7%), so a change well inside a bound still shows plainly
// in the B/A column of `compare`.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_iter", unit: "count", better: "lower", bound: 0.20},
	{name: "alloc_mb_per_iter", unit: "MB", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "live_goroutines", unit: "count", better: "lower", bound: 0.25},
}

const (
	movesPark     = "wall_s, cpu_s: web, contention (strong); bulk (small); warm (none)"
	movesEvents   = "wall_s: every simulated workload, bulk most; censor for timer depth"
	movesPipes    = "wall_s: bulk, contention; little on web"
	movesCells    = "wall_s: contention, bulk; under 8% on web"
	movesPT       = "wall_s: bulk, web; live_goroutines: every world-building workload; not contention"
	movesAccess   = "wall_s: web, censor"
	movesCensor   = "wall_s: censor only"
	movesRender   = "wall_s: warm only"
	movesCounts   = "work done; explains wall_s of the workload it is read on"
	movesWorldMem = "peak_rss_mb: every world-building workload"
)

// perLayer lists the 33 traced metrics, then the 54 probes.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	t := func(name, unit, better, moves string) metric {
		return metric{name: name, unit: unit, better: better, source: "traced", moves: moves}
	}
	p := func(name, unit, better, moves string) metric {
		return metric{name: name, unit: unit, better: better, source: "probe", moves: moves}
	}
	ms := []metric{
		// runtime
		t("cpu.futex", "share", "lower", movesPark),
		t("cpu.gc", "share", "lower", "allocs_per_iter, then wall_s: web"),
		t("cpu.runtime", "share", "lower", movesPark),
		t("os.ctx_switches", "count", "lower", movesPark),
		// netem
		t("cpu.netem", "share", "lower", movesEvents),
		t("netem.segments", "count", "lower", movesCounts),
		t("netem.bytes_delivered", "B", "lower", movesCounts),
		t("netem.conns_opened", "count", "lower", movesCounts),
		t("netem.dials", "count", "lower", movesCounts),
		t("netem.dials_refused", "count", "lower", movesCounts),
		t("netem.wall_ns_per_segment", "ns", "lower", movesEvents),
		// tor
		t("cpu.tor", "share", "lower", movesCells),
		t("cpu.crypto", "share", "lower", movesCells),
		t("tor.cells_flushed", "count", "lower", movesCounts),
		t("tor.cells_dropped", "count", "lower", movesCounts),
		t("tor.wall_ns_per_cell", "ns", "lower", movesCells),
		t("tor.sched_delay_vms", "ms", "lower", "virtual queueing delay per flushed cell; a model output, not a host cost"),
		t("tor.recovery_total", "count", "lower", movesCounts),
		// pt
		t("cpu.pt", "share", "lower", movesPT),
		// web, fetch, socks
		t("cpu.app", "share", "lower", movesAccess),
		// censor, faults
		t("cpu.censor", "share", "lower", movesCensor),
		t("censor.throttled_segments", "count", "lower", movesCounts),
		t("censor.blocked_dials", "count", "lower", movesCounts),
		t("censor.resets", "count", "lower", movesCounts),
		t("censor.loss_events", "count", "lower", movesCounts),
		// harness, testbed, sim, obs, stats, plot
		t("cpu.harness", "share", "lower", movesRender),
		t("harness.simulate_ms", "ms", "lower", "wall_s: every simulated workload"),
		t("harness.render_ms", "ms", "lower", movesRender),
		t("obs.artifacts_ms", "ms", "lower", "none: export runs after the timed interval"),
		t("sim.cells", "count", "lower", movesCounts),
		t("sim.vsec", "s", "higher", movesCounts),
		t("sim.vsec_per_wall_s", "1/s", "higher", "a rescaling of wall_s; reported, not gated"),
		t("trace.overhead_ratio", "ratio", "lower", "none: ROADMAP item D's number"),

		p("netem.event_ns", "ns", "lower", movesEvents),
		p("netem.park_ns", "ns", "lower", movesPark),
		p("netem.timer_ns_d10k", "ns", "lower", movesEvents),
		p("netem.pipe_mbps_1k", "MB/s", "higher", movesPipes),
		p("netem.pipe_mbps_16k", "MB/s", "higher", movesPipes),
		p("netem.sink_mbps_16k", "MB/s", "higher", movesPipes),
		p("netem.reserve_ns", "ns", "lower", movesEvents),
		p("netem.dial_us", "us", "lower", movesAccess),
		p("tor.cell_codec_ns", "ns", "lower", movesCells),
		p("tor.circuit_build_us", "us", "lower", movesAccess),
		p("tor.stream_mbps", "MB/s", "higher", movesCells),
		p("tor.stream_mbps_c16", "MB/s", "higher", "wall_s: contention only"),
		p("pt.record_mbps", "MB/s", "higher", movesPT),
		p("pt.splice_mbps", "MB/s", "higher", movesPT),
	}
	for _, name := range allMethods() {
		ms = append(ms,
			p("pt."+name+".preheat_ms", "ms", "lower", movesPT),
			p("pt."+name+".download_ms_per_mb", "ms/MB", "lower", movesPT))
	}
	return append(ms,
		p("web.serve_mbps", "MB/s", "higher", movesAccess),
		p("web.page_us", "us", "lower", movesAccess),
		p("fetch.browse_ms", "ms", "lower", movesAccess),
		p("censor.filter_ns", "ns", "lower", movesCensor),
		p("testbed.world_build_ms", "ms", "lower", "wall_s: censor (8 worlds per iteration), web"),
		p("testbed.goroutines_per_world", "count", "lower", movesWorldMem),
		p("sim.submit_us", "us", "lower", movesRender),
		p("obs.digest_us", "us", "lower", movesRender),
		p("obs.cache_load_us", "us", "lower", movesRender),
		p("obs.cache_store_us", "us", "lower", "setup_s: warm (the pre-fill stores 13 cells)"),
		p("stats.summarize_us_n1k", "us", "lower", movesRender),
		p("stats.pairedt_us_n1k", "us", "lower", movesRender),
		p("plot.boxes_us", "us", "lower", movesRender),
		p("plot.ecdf_us", "us", "lower", movesRender),
	)
}
