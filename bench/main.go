// Command bench is the repository benchmark (see README.md and
// ../BENCHMARK.json). It measures the simulator from outside: every
// iteration of a workload is one fresh child process of this binary
// that runs harness experiments the way `ptperf -exp …` does.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run; the last line of stdout is the result
//	bench suite -seed N -runs R -o FILE               every workload: R untraced runs, one traced; saved for compare
//	bench compare A.json B.json                       medians, ratios and bounds of two suite files
//
// Start it through run.sh, which builds it and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			os.Exit(suiteMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runMain is one contract run, or one child of it.
func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", 1, "the run's campaigns are derived from it: same seed, same inputs")
		seconds = fs.Int("seconds", defaultSeconds, "the untraced run repeats its campaign list while this many seconds have not passed; 0 is the quick smoke: one set-up, one iteration")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run and the probes")

		child   = fs.Bool("child", false, "internal: run one iteration in this process and print it as JSON")
		prefill = fs.Bool("prefill", false, "internal: with -child, fill the result cache and print nothing else")
		traced  = fs.Bool("trace-child", false, "internal: with -child, run the traced iteration")
		probes  = fs.Bool("probes", false, "internal: with -child, run the probe suite")
		cache   = fs.String("cache", "", "internal: result-cache directory of a cached workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *child {
		var err error
		switch {
		case *probes:
			err = runProbes()
		case *prefill:
			err = runPrefill(*name, *seed, *cache)
		default:
			err = runChild(*name, *seed, *cache, *traced)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames()))
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("want -seconds >= 0 and -trace 0 or 1"))
	}
	res, err := runWorkload(w, *seed, *seconds, *trace, os.Stdout)
	if err != nil {
		return fail(err)
	}
	// The contract's result line: exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]contractVal `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, contractMetrics(res)})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// contractVal is a metric as the result line carries it.
type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractMetrics(res result) map[string]contractVal {
	out := make(map[string]contractVal, len(res.Metrics))
	for name, v := range res.Metrics {
		out[name] = contractVal{v.Value, v.Unit}
	}
	return out
}

// suiteFile is what `suite` writes and `compare` reads.
type suiteFile struct {
	Runs []result `json:"runs"`
}

// suiteMain runs every workload: -runs untraced runs of run_seconds at
// seeds -seed, -seed+1, …, then one traced run at -seed. It prints
// every metric by name and unit and saves the results for `compare`.
func suiteMain(args []string) int {
	fs := flag.NewFlagSet("bench suite", flag.ContinueOnError)
	var (
		seed = fs.Int64("seed", 1, "seed of the first run of each workload")
		runs = fs.Int("runs", 4, "untraced runs per workload, each at the next seed; compare needs 4 to know the spread")
		out  = fs.String("o", "", "write the results to this file for `bench compare`")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var file suiteFile
	code := 0
	for _, w := range workloads {
		for i := 0; i <= *runs; i++ {
			s, trace := *seed+int64(i), 0
			if i == *runs {
				s, trace = *seed, 1
			}
			res, err := runWorkload(w, s, defaultSeconds, trace, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, res)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}
