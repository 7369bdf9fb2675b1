package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workload.go")

// TestMain lets the test binary stand in for the benchmark binary: the
// driver re-executes os.Executable() with -child, and that lands here.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(runMain(os.Args[1:]))
	}
	// The driver's paths are relative to the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 9, 3}, 1.5, 4, 8},
		{[]float64{0.8, 0.9, 1.0, 1.3, 2.0, 2.1, 4.4}, 0.9, 1.3, 2.1},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.q2 || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.xs, s, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := (summary{Median: 2, Q1: 1.9, Q3: 2.1}).spread(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("spread = %v, want 0.1", got)
	}
	if s := summarize(nil); !math.IsNaN(s.Median) || s.N != 0 {
		t.Errorf("summarize(nil) = %+v, want NaN and n=0", s)
	}
}

// TestSamplesGiveEachCampaignOneVote: a run's value must not depend on
// how many repeats of its campaign list the host had time for.
func TestSamplesGiveEachCampaignOneVote(t *testing.T) {
	once, repeated := samples{}, samples{}
	for c, v := range []float64{1, 2, 30} {
		once.add(4, c, map[string]float64{"wall_s": v})
		repeated.add(4, c, map[string]float64{"wall_s": v})
	}
	// A second pass that got as far as campaigns 0 and 1; campaign 3
	// failed both times and has no reading.
	repeated.add(4, 0, map[string]float64{"wall_s": 1.5})
	repeated.add(4, 0, map[string]float64{"wall_s": 1.25})
	repeated.add(4, 1, map[string]float64{"wall_s": 2})
	if got := once.summarize("wall_s", "s"); got.Value != 2 || got.N != 3 || got.Unit != "s" {
		t.Errorf("one pass: %+v, want the median 2 of 3 campaigns", got)
	}
	if got := repeated.summarize("wall_s", "s"); got.Value != 2 || got.N != 3 || got.Q1 != 1.25 {
		t.Errorf("with repeats: %+v, want median 2, q1 1.25 (campaign 0's median), n=3", got)
	}
}

const cannedTop = `File: ptperf-bench
Type: cpu
Time: Sep 30, 2026 at 4:20am (UTC)
Duration: 4.61s, Total samples = 4.77s (103.49%)
Showing nodes accounting for 4.77s, 100% of 4.77s total
      flat  flat%   sum%        cum   cum%
     0.80s 16.77% 16.77%      0.80s 16.77%  runtime.futex
     0.50s 10.48% 27.25%      0.90s 18.87%  ptperf/internal/netem.(*Clock).dispatchLocked
     0.10s  2.10% 29.35%      0.10s  2.10%  container/heap.down
     0.40s  8.39% 37.74%      0.40s  8.39%  crypto/internal/fips140/aes.ctrBlocks8Asm
     0.30s  6.29% 44.03%      0.70s 14.68%  ptperf/internal/tor.(*circuit).seal
     0.20s  4.19% 48.22%      0.20s  4.19%  ptperf/internal/pt/obfs4.(*conn).Write
     0.10s  2.10% 50.32%      0.10s  2.10%  ptperf/internal/pt.(*RecordConn).Write (inline)
     0.10s  2.10% 52.41%      0.10s  2.10%  ptperf/internal/fetch.(*Client).Get
     0.05s  1.05% 53.46%      0.05s  1.05%  ptperf/internal/censor.(*Censor).FilterSegment
     0.05s  1.05% 54.51%      0.05s  1.05%  ptperf/internal/harness.(*Runner).task
     100ms  2.10% 56.60%      100ms  2.10%  runtime.mallocgc
     100ms  2.10% 58.70%      100ms  2.10%  runtime.(*mspan).sweep
     1.97s 41.30%   100%      1.97s 41.30%  runtime.schedule
         0     0%   100%      4.61s 96.65%  runtime.goexit
`

func TestBucketProfile(t *testing.T) {
	shares, total, err := bucketProfile(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	if total != 4770*time.Millisecond {
		t.Errorf("total = %v, want 4.77s", total)
	}
	want := map[string]float64{
		"cpu.futex": 0.80, "cpu.netem": 0.60, "cpu.crypto": 0.40, "cpu.tor": 0.30,
		"cpu.pt": 0.30, "cpu.app": 0.10, "cpu.censor": 0.05, "cpu.harness": 0.05,
		"cpu.gc": 0.20, "cpu.runtime": 1.97,
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
		if got := shares[b] * 4.77; math.Abs(got-want[b]) > 1e-9 {
			t.Errorf("%s holds %.3fs, want %.3fs", b, got, want[b])
		}
	}
	if len(shares) != len(cpuBuckets) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d shares sum to %v, want %d summing to 1", len(shares), sum, len(cpuBuckets))
	}
	if _, _, err := bucketProfile("flat flat% sum% cum cum%\n"); err == nil {
		t.Error("a profile without samples was accepted")
	}
	if _, err := parsePprofDuration("3furlongs"); err == nil {
		t.Error("an unknown unit was accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "iteration", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "harness.new", StartNS: 0, EndNS: 10},
		{ID: 2, Parent: 0, Name: "harness.run:fig5", StartNS: 10, EndNS: 80},
		{ID: 3, Parent: 2, Name: "inner", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 0, Name: "harness.artifacts", StartNS: 85, EndNS: 95},
	}
	want := []time.Duration{10, 10, 40, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// A nil tracer records nothing and costs nothing.
	var tr *tracer
	tr.end(tr.begin("x", -1, 0))
}

func TestCheckReport(t *testing.T) {
	w, _ := lookupWorkload("contention")
	good := "\n=== contention — guard-contention sweep (Relay scheduler) ===\ntor@idle 1\nobfs4@idle 2\nwebtunnel@idle 3\n"
	if p := w.checkReport(good); len(p) != 0 {
		t.Errorf("good report: %v", p)
	}
	if p := w.checkReport(strings.Replace(good, "obfs4@idle 2\n", "", 1)); len(p) != 1 || !strings.Contains(p[0], "obfs4") {
		t.Errorf("report without the obfs4 row: %v", p)
	}
	if p := w.checkReport("tor obfs4 webtunnel\n"); len(p) != 1 || !strings.Contains(p[0], "header") {
		t.Errorf("report without a header: %v", p)
	}
}

func TestVerdict(t *testing.T) {
	m := metric{name: "wall_s", better: "lower", bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, tc := range []struct {
		name    string
		a, b    []float64
		want    string
		outside bool
	}{
		{"same", steady, steady, "within bound", false},
		{"worse", steady, []float64{1.2, 1.21, 1.19, 1.2}, "OUTSIDE BOUND", true},
		{"better", steady, []float64{0.8, 0.81, 0.79, 0.8}, "better in every run", false},
		{"noisy", steady, []float64{0.8, 1.0, 1.2, 1.05}, "unresolved (spread", false},
		{"few", steady, []float64{1.0}, "unresolved (fewer", false},
	} {
		got, outside := verdict(m, tc.a, tc.b)
		if !strings.HasPrefix(got, tc.want) || outside != tc.outside {
			t.Errorf("%s: verdict = %q, %v; want %q, %v", tc.name, got, outside, tc.want, tc.outside)
		}
	}
	if w := worse(metric{better: "higher"}, 100, 80); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("worse(higher is better, 100 -> 80) = %v, want 0.2", w)
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonPerLayer `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func tablesAsJSON() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonPerLayer{m.name, m.unit, m.better})
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program
// reports from: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	want := tablesAsJSON()
	if *update {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCHMARK.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run `go test -run TestBenchmarkJSON -update` in bench/")
	}
	if len(endToEnd) != 7 || len(perLayer) != 87 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 7 and 87", len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		// A cached workload has one pre-filled cache per set-up.
		if w.campaigns < 1 || (w.cached && w.campaigns > setupRounds) {
			t.Errorf("workload %s measures %d campaigns, want at least 1 and, when cached, at most %d", w.name, w.campaigns, setupRounds)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s is listed twice", m.name)
		}
		seen[m.name] = true
		if m.bound < 0 || m.bound > 0.25 || len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("metric %+v is outside the contract's limits", m)
		}
	}
}

func metricNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}

func emittedNames(res result) []string {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestQuickSmoke runs one set-up and one iteration of warm and of web,
// each child a fresh process, and checks that what comes out is
// correct and named exactly as BENCHMARK.json says.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	t.Parallel() // with the probe test: both mostly wait for children
	for _, name := range []string{"warm", "web"} {
		w, _ := lookupWorkload(name)
		res, err := runWorkload(w, 1, 0, 0, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != 1 || len(res.ReportSHA) != 64 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d sha=%q", name, res.Correct, res.Failed, res.Attempted, res.ReportSHA)
		}
		if got, want := emittedNames(res), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %v, want %v", name, got, want)
		}
		for metric, v := range res.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive reading", name, metric, v.Value)
			}
		}
	}
}

// TestProbesEmitEveryProbeMetric runs the probe suite once and checks
// that it reports exactly the per-layer metrics sourced from probes.
func TestProbesEmitEveryProbeMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	t.Parallel()
	w, _ := lookupWorkload("bulk")
	d, err := newDriver(w, 1, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var probes probeSet
	if err := d.child(&probes, "-probes"); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range perLayer {
		if m.source == "probe" {
			want = append(want, m.name)
		}
	}
	sort.Strings(want)
	got := make([]string, 0, len(probes))
	for name, p := range probes {
		got = append(got, name)
		if !(p.Value > 0) {
			t.Errorf("%s = %v, want a positive reading", name, p.Value)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("probes emitted %v, want %v", got, want)
	}
}
