package main

import (
	"ptperf/internal/harness"
	"ptperf/internal/pt"
)

// expRun is one harness.Run of a workload. pays marks the Run that
// simulates its campaign; the others render a campaign an earlier Run
// of the same Runner already memoised.
type expRun struct {
	id   string
	pays bool
}

// workload is one named set of inputs. One iteration of a workload is
// one fresh child process that builds the config, runs exps in order on
// one Runner (repeat times back to back) and reports what it cost.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why  string
	exps []expRun
	// methods are the access methods every report section must carry a
	// row for.
	methods []string
	mutate  func(*harness.Config)
	// repeat is K: how many times New+Run repeats inside one iteration.
	repeat int
	// cached runs against a result cache pre-filled during set-up, with
	// plots on; any cache miss fails the iteration.
	cached bool
	// campaigns is how many campaigns an untraced run measures: always
	// campaigns 0..campaigns-1 of its seed, so that what a run samples
	// does not depend on how fast the host is. It is sized so that one
	// pass takes about run_seconds on the reference box. A cached
	// workload has one cache per set-up, hence setupRounds campaigns.
	campaigns int
}

// traceRepeats is how many times the traced child repeats the campaign
// in-process, so that the CPU profile holds at least 500 samples.
const traceRepeats = 5

func allMethods() []string { return append([]string{"tor"}, pt.Names()...) }

// baseConfig is bench_test.go's benchConfig: the miniature campaign
// every workload starts from.
func baseConfig(seed int64) harness.Config {
	return harness.Config{
		Seed:         seed,
		ByteScale:    0.06,
		Sites:        4,
		Repeats:      1,
		FileAttempts: 1,
		FileSizesMB:  []int{5, 10},
		Jobs:         1,
		Plot:         false,
	}
}

// workloads lists the five workloads in the order the suite runs them.
// Names are fixed: BENCHMARK.json and every later comparison use them.
var workloads = []workload{
	{
		name: "bulk",
		why:  "13 methods x 3 file sizes of bulk download in one world: pipes, relay flush, cell crypto and PT pumps do nearly all the work",
		exps: []expRun{{"fig5", true}, {"fig8", false}, {"table7", false}},
		mutate: func(c *harness.Config) {
			c.FileSizesMB = []int{5, 10, 20}
		},
		methods:   allMethods(),
		repeat:    1,
		campaigns: 12,
	},
	{
		name:      "web",
		why:       "curl and browser campaigns of many small objects on 6 parallel streams: handshakes, circuit builds and goroutine handoff dominate, bytes do little",
		exps:      []expRun{{"fig2a", true}, {"fig2b", true}, {"fig6", false}, {"fig11", false}, {"table3", false}, {"table5", false}},
		methods:   allMethods(),
		repeat:    1,
		campaigns: 16,
	},
	{
		name: "contention",
		why:  "five worlds of competitor fleets sharing one guard: many circuits queue on one relay scheduler; only 3 methods, so PT changes should not move it",
		exps: []expRun{{"contention", true}},
		mutate: func(c *harness.Config) {
			c.Sites = 2
		},
		methods:   []string{"tor", "obfs4", "webtunnel"},
		repeat:    1,
		campaigns: 12,
	},
	{
		name:      "censor",
		why:       "scenario sweep of 8 worlds x 13 methods: world build, the censor hook on every dial and segment, and blocked accesses waiting out the timer heap",
		exps:      []expRun{{"sweep", true}},
		methods:   allMethods(),
		repeat:    1,
		campaigns: 16,
	},
	{
		name: "warm",
		why:  "50 back-to-back runs of every paper artifact against a pre-filled result cache: no world is built, so every data-plane change predicts no change here",
		exps: []expRun{{"all", false}},
		mutate: func(c *harness.Config) {
			c.Plot = true
		},
		methods:   allMethods(),
		repeat:    50,
		cached:    true,
		campaigns: setupRounds,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) config(seed int64) harness.Config {
	cfg := baseConfig(seed)
	if w.mutate != nil {
		w.mutate(&cfg)
	}
	return cfg
}
