package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"sort"
	"time"

	"ptperf/internal/plot"
)

// This file renders the self-contained HTML report artifact: the
// campaign's experiment reports verbatim (the boxes/ECDF renderings of
// internal/harness/report.go, in <pre> blocks), per-cell metric
// timelines as inline SVG sparklines, and — when a benchmark history
// file is present — the repository's perf trajectory across CI runs.
// The rendering is deterministic: no wall-clock timestamps, cells and
// series in canonical order, fixed number formats. Byte-comparing two
// reports is therefore a valid cache-soundness check.

// Section is one experiment's captured text report.
type Section struct {
	// ID is the experiment id ("fig2a", "sweep", ...).
	ID string
	// Title is the experiment's one-line description.
	Title string
	// Body is the text report as the terminal would have shown it.
	Body string
}

// HistoryEntry is one benchmark run in the committed perf-history file
// (one JSON object per line).
type HistoryEntry struct {
	// Label names the run (a commit hash in CI, "local" otherwise).
	Label string `json:"label"`
	// NS maps benchmark name to ns/op.
	NS map[string]float64 `json:"ns"`
}

// ParseBenchHistory reads a JSONL perf-history stream; unparseable
// lines, and lines of 1 MiB or more, are skipped (the file is
// append-only across CI runs and must tolerate a torn tail).
func ParseBenchHistory(r io.Reader) []HistoryEntry {
	var out []HistoryEntry
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadSlice('\n')
		for err == bufio.ErrBufferFull {
			// Too long to hold: drop it through its newline.
			line = nil
			_, err = br.ReadSlice('\n')
		}
		var e HistoryEntry
		if line = bytes.TrimSpace(line); json.Unmarshal(line, &e) == nil && len(e.NS) > 0 {
			out = append(out, e)
		}
		if err != nil {
			return out
		}
	}
}

// HTMLReport is everything the report artifact renders.
type HTMLReport struct {
	// Title heads the document.
	Title string
	// Config is a short text summary of the campaign configuration.
	Config string
	// Sections are the experiment reports, in run order.
	Sections []Section
	// Cells are the metric timelines, in canonical cell order.
	Cells []CellTimeline
	// History is the perf trajectory, oldest first.
	History []HistoryEntry
}

// seriesRow is one sparkline row of a cell's timeline table.
type seriesRow struct {
	Label  string
	Values []float64
	Total  float64
}

// sparkRows are the sparkline rows shown per cell, in order: each sums
// the families whose spark names it.
var sparkRows = []string{"bytes delivered", "relay cells flushed", "dials", "censor interference", "recovery events"}

// timelineSeries derives the sparkline series shown per cell, bucketing
// the (possibly sparse) samples into at most buckets intervals across
// the timeline's horizon.
func timelineSeries(tl *Timeline, buckets int) []seriesRow {
	horizon := tl.Horizon()
	if horizon <= 0 || len(tl.Samples) == 0 {
		return nil
	}
	n := max(1, min(buckets, int(horizon/tl.Interval)+1))
	bucketOf := func(t time.Duration) int {
		return max(0, min(n-1, int(int64(t)*int64(n)/(int64(horizon)+1))))
	}
	rows := make([]seriesRow, len(sparkRows))
	for i, label := range sparkRows {
		rows[i] = seriesRow{Label: label, Values: make([]float64, n)}
		for _, sm := range tl.Samples {
			var v int64
			for _, f := range families {
				if f.spark == label {
					for _, l := range f.labels([]Sample{sm}) {
						v += f.value(sm, l)
					}
				}
			}
			rows[i].Values[bucketOf(sm.T)] += float64(v)
			rows[i].Total += float64(v)
		}
	}
	return rows
}

// WriteHTML renders the report artifact.
func WriteHTML(w io.Writer, rep HTMLReport) error {
	bw := bufio.NewWriter(w)
	title := rep.Title
	if title == "" {
		title = "PTPerf campaign report"
	}
	esc := html.EscapeString
	fmt.Fprintf(bw, `<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>%s</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 72em; color: #222; }
pre { background: #f6f6f6; padding: 1em; overflow-x: auto; font-size: 12px; line-height: 1.3; }
h2 { border-bottom: 1px solid #ddd; padding-bottom: .2em; margin-top: 2em; }
table.metrics { border-collapse: collapse; margin: .5em 0 1.5em; }
table.metrics td, table.metrics th { padding: .2em .8em; border-bottom: 1px solid #eee; text-align: left; font-size: 13px; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.cellkey { font-family: monospace; }
</style></head><body>
`, esc(title))
	fmt.Fprintf(bw, "<h1>%s</h1>\n", esc(title))
	if rep.Config != "" {
		fmt.Fprintf(bw, "<pre>%s</pre>\n", esc(rep.Config))
	}

	if len(rep.Cells) > 0 {
		fmt.Fprintf(bw, "<h2>Metric timelines</h2>\n")
		fmt.Fprintf(bw, "<p>Per-cell virtual-time series sampled every interval on the world's own clock; sparklines bucket the horizon into ≤120 intervals.</p>\n")
		for _, c := range rep.Cells {
			if c.Timeline == nil || len(c.Timeline.Samples) == 0 {
				continue
			}
			tl := c.Timeline
			fmt.Fprintf(bw, "<h3 class=\"cellkey\">%s</h3>\n", esc(c.Cell))
			fmt.Fprintf(bw, "<p>interval %s · horizon %s · %d samples · digest <code>%s</code></p>\n",
				esc(tl.Interval.String()), esc(tl.Horizon().String()), len(tl.Samples), esc(tl.Digest()))
			fmt.Fprintf(bw, "<table class=\"metrics\">\n<tr><th>series</th><th>timeline</th><th>total</th></tr>\n")
			for _, s := range timelineSeries(tl, 120) {
				fmt.Fprintf(bw, "<tr><td>%s</td><td>%s</td><td class=\"num\">%s</td></tr>\n",
					esc(s.Label), plot.SparkSVG(s.Values, 360, 32), plot.AppendFixed(nil, s.Total, 0))
			}
			fmt.Fprintf(bw, "</table>\n")
		}
	}

	for _, s := range rep.Sections {
		fmt.Fprintf(bw, "<h2 id=%q>%s — %s</h2>\n<pre>%s</pre>\n", esc(s.ID), esc(s.ID), esc(s.Title), esc(s.Body))
	}

	if len(rep.History) > 0 {
		fmt.Fprintf(bw, "<h2>Perf trajectory</h2>\n")
		fmt.Fprintf(bw, "<p>ns/op per benchmark across the committed history (%d runs, oldest first; lower is better).</p>\n", len(rep.History))
		names := make(map[string]bool)
		for _, e := range rep.History {
			//simlint:allow maprange -- set insertion only; the union is order-independent and the keys are sorted below before rendering.
			for n := range e.NS {
				names[n] = true
			}
		}
		ordered := make([]string, 0, len(names))
		for n := range names {
			ordered = append(ordered, n)
		}
		sort.Strings(ordered)
		fmt.Fprintf(bw, "<table class=\"metrics\">\n<tr><th>benchmark</th><th>trajectory</th><th>first</th><th>last</th></tr>\n")
		for _, name := range ordered {
			var vals []float64
			for _, e := range rep.History {
				if v, ok := e.NS[name]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			fmt.Fprintf(bw, "<tr><td>%s</td><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td></tr>\n",
				esc(name), plot.SparkSVG(vals, 360, 32), plot.AppendFixed(nil, vals[0], 0), plot.AppendFixed(nil, vals[len(vals)-1], 0))
		}
		fmt.Fprintf(bw, "</table>\n")
		last := rep.History[len(rep.History)-1]
		fmt.Fprintf(bw, "<p>latest run: <code>%s</code></p>\n", esc(last.Label))
	}

	fmt.Fprintf(bw, "</body></html>\n")
	return bw.Flush()
}
