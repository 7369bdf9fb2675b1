package harness

import (
	"fmt"
	"io"
	"strconv"

	"ptperf/internal/plot"
	"ptperf/internal/stats"
)

// table is a minimal aligned-column text table writer. Its cells are
// appended into one byte buffer, the header's first (row 0), and each is
// known by the offsets where it starts and ends. A Runner keeps one
// table and reuses its arrays for every table it writes (Runner.table),
// so a table no bigger than one before it allocates nothing.
type table struct {
	buf    []byte // every cell's bytes, back to back
	ends   []int  // cell i is buf[ends[i]:ends[i+1]]
	rows   []int  // rows[j] is the index of row j's first cell
	widths []int
	line   []byte // the line being written
}

// table empties r's table and starts it with the header's cells.
func (r *Runner) table(header ...string) *table {
	t := &r.tab
	t.buf, t.ends, t.rows = t.buf[:0], append(t.ends[:0], 0), t.rows[:0]
	t.row(header...)
	return t
}

// row starts a new row with cells: the cells appended after it are the
// row's too.
func (t *table) row(cells ...string) {
	t.rows = append(t.rows, len(t.ends)-1)
	for _, c := range cells {
		t.cell(c)
	}
}

// cut ends the cell whose bytes were appended to buf since the last.
func (t *table) cut() { t.ends = append(t.ends, len(t.buf)) }

// cell appends s and ends the cell: after bytes appended to buf by
// hand, s is the cell's tail ("%", a second name).
func (t *table) cell(s string) {
	t.buf = append(t.buf, s...)
	t.cut()
}

// fixed appends each x with prec digits after the point as a cell.
func (t *table) fixed(prec int, xs ...float64) {
	for _, x := range xs {
		t.buf = plot.AppendFixed(t.buf, x, prec)
		t.cut()
	}
}

// ints appends each n as a cell.
func (t *table) ints(ns ...int64) {
	for _, n := range ns {
		t.buf = strconv.AppendInt(t.buf, n, 10)
		t.cut()
	}
}

// percent appends part of whole as a whole percentage, "56%".
func (t *table) percent(part, whole int) {
	t.buf = plot.AppendFixed(t.buf, 100*float64(part)/float64(whole), 0)
	t.cell("%")
}

// write prints title, when not empty, and the table, one Write a line,
// and ends the table. Each of the header's columns is as wide as its
// widest cell; a row's last cell and its cells past the header's go out
// unpadded.
func (t *table) write(w io.Writer, title string) {
	if title != "" {
		t.flush(w, append(t.line[:0], title...))
	}
	t.rows = append(t.rows, len(t.ends)-1) // where the last row ends
	n := t.rows[1]
	t.widths = append(t.widths[:0], make([]int, n)...)
	for j := 0; j+1 < len(t.rows); j++ {
		lo := t.rows[j]
		for i := lo; i < min(t.rows[j+1], lo+n); i++ {
			t.widths[i-lo] = max(t.widths[i-lo], t.ends[i+1]-t.ends[i])
		}
	}
	for j := 0; j+1 < len(t.rows); j++ {
		line, lo, hi := t.line[:0], t.rows[j], t.rows[j+1]
		for i := lo; i < hi; i++ {
			if i > lo {
				line = append(line, "  "...)
			}
			line = append(line, t.buf[t.ends[i]:t.ends[i+1]]...)
			if i-lo < n && i != hi-1 {
				line = appendRepeat(line, ' ', t.widths[i-lo]-(t.ends[i+1]-t.ends[i]))
			}
		}
		t.flush(w, line)
		if j == 0 { // the rule under the header
			line = t.line[:0]
			for i, width := range t.widths {
				if i > 0 {
					line = append(line, "  "...)
				}
				line = appendRepeat(line, '-', width)
			}
			t.flush(w, line)
		}
	}
}

// flush writes line and a newline in one Write, and keeps line's array.
func (t *table) flush(w io.Writer, line []byte) {
	t.line = append(line, '\n')
	w.Write(t.line)
}

// appendRepeat appends n copies of c to buf.
func appendRepeat(buf []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		buf = append(buf, c)
	}
	return buf
}

// box adds a row, label and the summary of xs, to the box-plot table
// the next writeBoxes prints.
func (r *Runner) box(label string, xs []float64) {
	r.boxes = append(r.boxes, plot.Box{Label: label, Stats: stats.Summarize(xs)})
}

// writeBoxes prints the rows box added as one box-plot table (plus the
// ASCII figure when the runner plots), and empties them.
func (r *Runner) writeBoxes(title string) {
	w := r.out
	t := r.table("method", "n", "min", "q1", "median", "q3", "max", "mean", "sd")
	for _, row := range r.boxes {
		b := row.Stats
		t.row(row.Label)
		t.ints(int64(b.N))
		t.fixed(2, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.SD)
	}
	t.write(w, title)
	fmt.Fprintln(w)
	if r.cfg.Plot {
		plot.Boxes(w, title+" — box plot", r.boxes, 64, false)
	}
	r.boxes = r.boxes[:0]
}

// curve adds a sample to the ECDF the next writeECDF prints; an empty
// one adds nothing.
func (r *Runner) curve(label string, xs []float64) {
	if len(xs) > 0 {
		r.curves = append(r.curves, plot.Series{Label: label, Values: xs})
	}
}

// ecdfQuantiles are the quantiles an ECDF table prints, in the columns
// its header names p10 to p100.
var ecdfQuantiles = [...]float64{0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 1.0}

// writeECDF prints the samples curve added as decile rows (plus the
// ASCII curve when the runner plots), and empties them.
func (r *Runner) writeECDF(title string) {
	w := r.out
	t := r.table("method", "p10", "p25", "p50", "p75", "p80", "p90", "p95", "p100")
	for _, s := range r.curves {
		r.ecdf.Load(s.Values)
		t.row(s.Label)
		for _, q := range ecdfQuantiles {
			t.fixed(2, r.ecdf.InverseAt(q))
		}
	}
	t.write(w, title)
	fmt.Fprintln(w)
	if r.cfg.Plot {
		plot.ECDF(w, title+" — ECDF", r.curves, 64, 12)
	}
	r.curves = r.curves[:0]
}

// pairTable starts the paper's t-test table layout: pair, CI bounds, t,
// P, mean difference.
func (r *Runner) pairTable() *table {
	return r.table("pair", "ci-lower", "ci-upper", "t-value", "p-value", "mean-diff")
}

// pair appends res's cells to a t-test row, after its pair name.
func (t *table) pair(res stats.TTestResult) {
	t.fixed(3, res.CILower, res.CIUpper)
	t.fixed(2, res.T)
	t.buf = appendP(t.buf, res.P)
	t.cut()
	t.fixed(3, res.MeanDiff)
}

// appendP appends p as the paper prints it: "<.001" below the threshold.
func appendP(dst []byte, p float64) []byte {
	if p < 0.001 {
		return append(dst, "<.001"...)
	}
	return plot.AppendFixed(dst, p, 3)
}

// fixed formats x with prec digits after the point, as %.Nf would.
func fixed(x float64, prec int) string {
	var b [32]byte
	return string(plot.AppendFixed(b[:0], x, prec))
}

// writeAllPairs prints a t-test table of every method pair of the
// dataset, in order, each row written as its test is run; unpairable
// samples are skipped.
func (r *Runner) writeAllPairs(title string, data map[string]*accessData, pick func(*accessData) []float64, order []string) {
	t := r.pairTable()
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
			t.row()
			t.buf = append(append(t.buf, a.Name...), '-')
			t.cell(b.Name)
			t.pair(res)
		}
	}
	t.write(r.out, title)
	fmt.Fprintln(r.out)
}
