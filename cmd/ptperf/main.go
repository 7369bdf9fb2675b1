// Command ptperf runs the PTPerf reproduction experiments: it builds the
// simulated measurement world (Tor substrate, twelve pluggable
// transports, web origin) and regenerates the paper's tables and
// figures.
//
// Usage:
//
//	ptperf -list
//	ptperf -exp fig2a
//	ptperf -exp all -sites 50 -repeats 5
//
// Beyond the paper's artifacts, the censor layer (internal/censor)
// runs campaigns under programmable network interference:
//
//	ptperf -exp scenario:throttle-surge          one scenario, all transports
//	ptperf -exp sweep                            {transports} × {scenarios}
//	ptperf -exp fig5 -scenario lossy-path        any artifact under a scenario
//
// The relay cell scheduler (internal/tor: EWMA circuit priority with
// KIST-style write budgeting) makes relay-side contention measurable;
// the guard-contention experiment crosses the shared-guard methods with
// the relay-overload scenario family and a FIFO baseline cell:
//
//	ptperf -exp contention                       {tor,obfs4,webtunnel} × {idle,light,busy,overload}
//
// The fault-injection subsystem (internal/faults) schedules relay
// crashes/restarts, link flaps and directory churn on the virtual
// clock; the Tor client recovers with bounded retries, backoff, guard
// probation and resumable downloads, and the churn experiment measures
// the cost:
//
//	ptperf -exp churn                            {tor,obfs4,webtunnel,snowflake} × {none,slow,fast churn}
//
// The simulation-torture subsystem (internal/simtest) fuzzes the whole
// substrate: randomized worlds — random transport subsets, composed
// censor scenarios, topology draws — each run under cross-cutting
// invariants (same-seed determinism, byte conservation, censor counter
// accounting, leak steady-state, report shape), with failures shrunk to
// a one-line repro seed:
//
//	ptperf fuzz -n 100 -seed 1                   torture 100 random worlds
//	ptperf fuzz -n 25 -jobs 4 -repro-out f.txt   bounded CI smoke
//
// The observability layer (internal/obs) samples every world's counter
// surfaces on its virtual clock into per-cell metric timelines, exports
// them as Prometheus text and a self-contained HTML report, streams
// live cell progress, and memoizes cell results content-addressed by
// their full input digest, so unchanged cells are never recomputed:
//
//	ptperf -exp sweep -report report.html        HTML report with sparkline timelines
//	ptperf -exp all -metrics-dir out/            Prometheus text exposition
//	ptperf -exp sweep -cache -progress           incremental rerun + live cell status
//
// Campaigns are sharded by world (internal/sim): independent simulated
// worlds — sweep cells, experiment worlds, client locations, fuzz
// worlds — run concurrently on up to -jobs OS threads (default: all
// cores). Each world keeps its own single-token virtual clock, so
// reports are byte-identical for any -jobs value; -jobs 1 reproduces
// fully sequential execution.
//
// Scenario names come from the internal/censor registry (clean,
// throttle-surge, lossy-path, bridge-block, snowflake-surge,
// rst-injection, evening-congestion, origin-throttle); -list prints
// them with descriptions.
//
// Reported durations are virtual seconds, directly comparable to the
// paper's wall-clock measurements (see DESIGN.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"ptperf/internal/censor"
	"ptperf/internal/harness"
	"ptperf/internal/pt"
	"ptperf/internal/web"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, dispatches the fuzz
// subcommand, and runs experiments, returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "fuzz" {
		return runFuzz(args[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("ptperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list experiments and exit")
		exp       = fs.String("exp", "all", "experiment id to run (see -list), or 'all'")
		seed      = fs.Int64("seed", 1, "campaign seed")
		sites     = fs.Int("sites", 12, "sites measured per catalog (Tranco and CBL)")
		repeats   = fs.Int("repeats", 2, "accesses per site (the paper uses 5)")
		attempts  = fs.Int("attempts", 2, "download attempts per file size")
		sizes     = fs.String("sizes", "", "comma-separated file sizes in MB (default 5,10,20,50,100)")
		byteScale = fs.Float64("bytescale", 0.125, "byte-quantity scale (sizes, rates and caps together)")
		pts       = fs.String("transports", "", "comma-separated methods (default: tor plus all 12 PTs)")
		scenario  = fs.String("scenario", "", "censor scenario every experiment world is built under (see -list; default: no interference)")
		jobs      = fs.Int("jobs", 0, "independent simulated worlds run concurrently (0 = all cores); reports are byte-identical for any value")
		seq       = fs.Bool("sequential", false, "measure transports one at a time within each world")
		plotFlag  = fs.Bool("plot", true, "render ASCII box plots and ECDF curves under the tables")

		metricsDir = fs.String("metrics-dir", "", "write per-cell metric timelines as Prometheus text exposition to DIR/metrics.prom (enables virtual-time sampling)")
		report     = fs.String("report", "", "write a self-contained HTML campaign report to FILE (enables virtual-time sampling)")
		histFile   = fs.String("bench-history", "BENCH_history.jsonl", "benchmark-history JSONL rendered as the report's perf trajectory (missing file: section omitted)")
		cache      = fs.Bool("cache", false, "reuse content-addressed cell results from -cache-dir; unchanged cells are not recomputed")
		cacheDir   = fs.String("cache-dir", ".ptperfcache", "directory of the content-addressed result cache")
		progress   = fs.Bool("progress", false, "stream live per-cell progress lines to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "Experiments (paper artifact — description):")
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "  %-24s %-14s %s\n", e.ID, e.Artifact, e.Title)
		}
		fmt.Fprintln(stdout, "\nCensor scenarios (for -scenario and the sweep):")
		for _, name := range censor.Names() {
			sc, _ := censor.Lookup(name)
			fmt.Fprintf(stdout, "  %-24s %s\n", name, sc.Description)
		}
		return 0
	}

	cfg := harness.Config{
		Seed:         *seed,
		ByteScale:    *byteScale,
		Sites:        *sites,
		Repeats:      *repeats,
		FileAttempts: *attempts,
		Scenario:     *scenario,
		Jobs:         *jobs,
		Sequential:   *seq,
		Plot:         *plotFlag,
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			mb, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || mb <= 0 {
				fmt.Fprintf(stderr, "ptperf: bad -sizes entry %q\n", s)
				return 1
			}
			cfg.FileSizesMB = append(cfg.FileSizesMB, mb)
		}
	} else {
		cfg.FileSizesMB = web.FileSizesMB
	}
	if *pts != "" {
		methods := append([]string{"tor"}, pt.Names()...)
		for _, p := range strings.Split(*pts, ",") {
			p = strings.TrimSpace(p)
			if !slices.Contains(methods, p) {
				fmt.Fprintf(stderr, "ptperf: unknown transport %q (have %s)\n", p, strings.Join(methods, ", "))
				return 1
			}
			if slices.Contains(cfg.Transports, p) {
				fmt.Fprintf(stderr, "ptperf: transport %q given twice\n", p)
				return 1
			}
			cfg.Transports = append(cfg.Transports, p)
		}
	}

	if *metricsDir != "" || *report != "" {
		cfg.MetricsInterval = harness.DefaultMetricsInterval
	}
	if *progress {
		cfg.Progress = stderr
	}

	r := harness.New(cfg, stdout)
	if *cache {
		if err := r.EnableCache(*cacheDir); err != nil {
			fmt.Fprintf(stderr, "ptperf: %v\n", err)
			return 1
		}
	}
	if err := r.Run(*exp); err != nil {
		fmt.Fprintf(stderr, "ptperf: %v\n", err)
		return 1
	}
	if err := r.WriteArtifacts(*metricsDir, *report, *histFile); err != nil {
		fmt.Fprintf(stderr, "ptperf: %v\n", err)
		return 1
	}
	if *cache {
		st := r.CacheStats()
		fmt.Fprintf(stderr, "ptperf: cache hits=%d misses=%d stores=%d\n", st.Hits, st.Misses, st.Stores)
	}
	return 0
}
