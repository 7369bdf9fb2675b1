package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSuite(path string) (suiteFile, error) {
	var f suiteFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runsOf returns the file's runs of one workload, traced or not.
func (f suiteFile) runsOf(workload string, trace int) []result {
	var out []result
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

// values returns one metric of every run; host selects the runs'
// uncorrected times and host readings (result.Host).
func values(runs []result, name string, host bool) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		if host {
			xs[i] = r.Host[name].Value
		} else {
			xs[i] = r.Metrics[name].Value
		}
	}
	return xs
}

// worse is by how much b is worse than a, as a share of a: positive
// when b moved against the metric's direction.
func worse(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(m metric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worse(m, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges one end-to-end metric on one workload from the runs of
// both sides. B's median may be worse than A's by at most the bound.
// Within the bound, the pair still counts as unresolved when the runs
// cannot tell a change of that size from noise: fewer than four runs
// on a side, or a quartile spread between runs wider than the bound,
// unless every run of B reads better than every run of A.
func verdict(m metric, a, b []float64) (text string, outside bool) {
	sa, sb := summarize(a), summarize(b)
	switch {
	case worse(m, sa.Median, sb.Median) > m.bound:
		return "OUTSIDE BOUND", true
	case allBetter(m, a, b):
		return "better in every run", false
	case m.name == "setup_s":
		return "within bound", false
	case sa.N < 4 || sb.N < 4:
		return "unresolved (fewer than 4 runs)", false
	case max(sa.spread(), sb.spread()) > m.bound:
		return fmt.Sprintf("unresolved (spread %.1f%%)", max(sa.spread(), sb.spread())*100), false
	}
	return "within bound", false
}

// compareMain prints, per workload and metric, both medians over the
// files' runs, the ratio B/A and the bound, and exits 1 when an
// end-to-end pair is outside its bound or B failed an iteration. Under
// a workload's end-to-end metrics it prints the three times as they
// read before the host corrections, and the host readings themselves:
// a ratio that shows in wall_s but not in raw_wall_s, or the reverse,
// is the host's doing when slowdown or stolen_s moved between A and B.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readSuite(args[0])
	if err == nil {
		var b suiteFile
		if b, err = readSuite(args[1]); err == nil {
			return compareSuites(a, b, out)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareSuites(a, b suiteFile, out io.Writer) int {
	code := 0
	fmt.Fprintf(out, "%-10s %-34s %16s %16s %-6s %9s %6s  %s\n", "workload", "metric", "A", "B", "unit", "B/A", "bound", "verdict")
	for _, w := range workloads {
		for trace, metrics := range [][]metric{endToEnd, perLayer} {
			ra, rb := a.runsOf(w.name, trace), b.runsOf(w.name, trace)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			for _, x := range ra {
				for _, y := range rb {
					if trace == 0 && x.Seed == y.Seed && x.ReportSHA != y.ReportSHA {
						fmt.Fprintf(out, "%-10s report bytes differ at seed %d: A %.12s, B %.12s\n", w.name, x.Seed, x.ReportSHA, y.ReportSHA)
					}
				}
			}
			for _, y := range rb {
				if y.Failed > 0 {
					fmt.Fprintf(out, "%-10s B failed %d of %d children at seed %d, trace %d\n", w.name, y.Failed, y.Attempted, y.Seed, trace)
					code = 1
				}
			}
			row := func(m metric, host bool) {
				va, vb := values(ra, m.name, host), values(rb, m.name, host)
				ma, mb := median(va), median(vb)
				ratio, bound, text := "-", "-", ""
				if ma != 0 {
					ratio = fmt.Sprintf("%.4f", mb/ma)
				}
				switch {
				case host:
					text = "not gated"
				case trace == 0:
					var outside bool
					text, outside = verdict(m, va, vb)
					bound = fmt.Sprintf("%.0f%%", m.bound*100)
					if outside {
						code = 1
					}
				}
				fmt.Fprintf(out, "%-10s %-34s %16.4f %16.4f %-6s %9s %6s  %s\n", w.name, m.name, ma, mb, m.unit, ratio, bound, text)
			}
			for _, m := range metrics {
				row(m, false)
			}
			if trace == 0 {
				for _, m := range hostReadings {
					row(m, true)
				}
			}
		}
	}
	return code
}
