package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ptperf/internal/plot"
	"ptperf/internal/stats"
)

// table is a minimal aligned-column text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	// Each line is built in buf, which every line of the table reuses,
	// and goes out in one Write.
	var buf []byte
	line := func(cells []string) {
		buf = buf[:0]
		for i, c := range cells {
			if i > 0 {
				buf = append(buf, "  "...)
			}
			buf = append(buf, c...)
			if i < len(widths) && i != len(cells)-1 {
				buf = appendRepeat(buf, ' ', widths[i]-len(c))
			}
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// appendRepeat appends n copies of c to buf.
func appendRepeat(buf []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		buf = append(buf, c)
	}
	return buf
}

// boxRow is one labelled row of a box-plot table.
type boxRow struct {
	Name string
	Box  stats.Box
}

// cells renders the row as table cells.
func (row boxRow) cells() []string {
	b := row.Box
	return []string{
		row.Name,
		strconv.Itoa(b.N),
		fixed(b.Min, 2),
		fixed(b.Q1, 2),
		fixed(b.Median, 2),
		fixed(b.Q3, 2),
		fixed(b.Max, 2),
		fixed(b.Mean, 2),
		fixed(b.SD, 2),
	}
}

var boxHeader = []string{"method", "n", "min", "q1", "median", "q3", "max", "mean", "sd"}

// writeBoxes prints one box-plot table (plus the ASCII figure when the
// runner plots).
func (r *Runner) writeBoxes(title string, rows []boxRow) {
	w := r.out
	fmt.Fprintf(w, "%s\n", title)
	t := &table{header: boxHeader, rows: make([][]string, 0, len(rows))}
	for _, row := range rows {
		t.add(row.cells()...)
	}
	t.write(w)
	fmt.Fprintln(w)
	if r.cfg.Plot {
		pb := make([]plot.Box, 0, len(rows))
		for _, row := range rows {
			pb = append(pb, plot.Box{Label: row.Name, Stats: row.Box})
		}
		plot.Boxes(w, title+" — box plot", pb, 64, false)
	}
}

// writeECDF prints an ECDF as decile rows (plus the ASCII curve when
// the runner plots).
func (r *Runner) writeECDF(title string, series map[string][]float64, order []string) {
	w := r.out
	fmt.Fprintf(w, "%s\n", title)
	head := []string{"method"}
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 1.0}
	for _, q := range qs {
		// Every q is at least 0.10: two digits or more, no zero padding.
		head = append(head, "p"+fixed(q*100, 0))
	}
	t := newTable(head...)
	for _, name := range order {
		xs, ok := series[name]
		if !ok || len(xs) == 0 {
			continue
		}
		e := stats.NewECDF(xs)
		row := []string{name}
		for _, q := range qs {
			row = append(row, fixed(e.InverseAt(q), 2))
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w)
	if r.cfg.Plot {
		ps := make([]plot.Series, 0, len(order))
		for _, name := range order {
			if xs, ok := series[name]; ok && len(xs) > 0 {
				ps = append(ps, plot.Series{Label: name, Values: xs})
			}
		}
		plot.ECDF(w, title+" — ECDF", ps, 64, 12)
	}
}

// writePairedT prints the paper's t-test table layout: pair, CI bounds,
// t, P, mean difference.
func writePairedT(w io.Writer, title string, pairs []pairResult) {
	fmt.Fprintf(w, "%s\n", title)
	t := newTable("pair", "ci-lower", "ci-upper", "t-value", "p-value", "mean-diff")
	t.rows = make([][]string, 0, len(pairs))
	for _, p := range pairs {
		t.add(
			p.Name,
			fixed(p.Res.CILower, 3),
			fixed(p.Res.CIUpper, 3),
			fixed(p.Res.T, 2),
			pvalue(p.Res.P),
			fixed(p.Res.MeanDiff, 3),
		)
	}
	t.write(w)
	fmt.Fprintln(w)
}

// pairResult is one row of a t-test table.
type pairResult struct {
	Name string
	Res  stats.TTestResult
}

// pvalue renders like the paper: "<.001" below the threshold.
func pvalue(p float64) string {
	if p < 0.001 {
		return "<.001"
	}
	return fixed(p, 3)
}

// fixed formats x with prec digits after the point, as %.Nf would.
func fixed(x float64, prec int) string {
	var b [32]byte
	return string(plot.AppendFixed(b[:0], x, prec))
}

// allPairs runs paired t-tests over every method pair of the dataset.
func allPairs(data map[string]*accessData, pick func(*accessData) []float64, order []string) []pairResult {
	out := make([]pairResult, 0, len(order)*(len(order)-1)/2)
	for i := 0; i < len(order); i++ {
		a, ok := data[order[i]]
		if !ok {
			continue
		}
		for j := i + 1; j < len(order); j++ {
			b, ok := data[order[j]]
			if !ok {
				continue
			}
			res, err := stats.PairedT(pick(a), pick(b))
			if err != nil {
				continue
			}
			out = append(out, pairResult{Name: a.Name + "-" + b.Name, Res: res})
		}
	}
	return out
}
