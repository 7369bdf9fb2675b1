package harness

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"ptperf/internal/plot"
	"ptperf/internal/pt"
	"ptperf/internal/stats"
	"ptperf/internal/testkit"
)

// lineWriter records every Write it is given.
type lineWriter struct{ writes [][]byte }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// fillTable writes rows[0] as the header of r's table and the rest as
// its rows, one cell a string.
func fillTable(r *Runner, rows [][]string) *table {
	t := r.table(rows[0]...)
	for _, row := range rows[1:] {
		t.row()
		for _, c := range row {
			t.cell(c)
		}
	}
	return t
}

// TestTableWritePinned pins the text table layout byte for byte: a cell
// wider than its header widens the column, a short row is not padded
// past its last cell, a long row's cells beyond the header go out
// unpadded, and empty cells still take their column's width. Each line
// is one Write, the title's too.
func TestTableWritePinned(t *testing.T) {
	var r Runner
	var w lineWriter
	fillTable(&r, [][]string{
		{"method", "n", "p50", "sd"},
		{"wider-than-its-header", "12", "3.45", "0.10"},
		{"short", "1"},
		{"long", "2", "1.00", "2.00", "extra", "", "tail"},
		{"", "", "", ""},
		{"last-empty", "3", "", ""},
	}).write(&w, "")
	fillTable(&r, [][]string{{"only"}}).write(&w, "a title")
	var got bytes.Buffer
	for _, p := range w.writes {
		if bytes.IndexByte(p, '\n') != len(p)-1 {
			t.Fatalf("write %q is not exactly one line", p)
		}
		got.Write(p)
	}
	const want = "" +
		"method                 n   p50   sd\n" +
		"---------------------  --  ----  ----\n" +
		"wider-than-its-header  12  3.45  0.10\n" +
		"short                  1\n" +
		"long                   2   1.00  2.00  extra    tail\n" +
		"                                 \n" +
		"last-empty             3         \n" +
		"a title\n" +
		"only\n" +
		"----\n"
	if got.String() != want {
		t.Fatalf("table bytes moved:\n got %q\nwant %q", got.String(), want)
	}
}

// refTable is the table writer the appending one replaced: a []string a
// row, each line built and written in turn. It is the reference the
// appending writer is held to.
type refTable struct {
	header []string
	rows   [][]string
}

func (t *refTable) write(w io.Writer) {
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

// refPairRow is a t-test row as the string writer built it.
func refPairRow(name string, res stats.TTestResult) []string {
	p := "<.001"
	if res.P >= 0.001 {
		p = fixed(res.P, 3)
	}
	return []string{name, fixed(res.CILower, 3), fixed(res.CIUpper, 3), fixed(res.T, 2), p, fixed(res.MeanDiff, 3)}
}

// TestTableMatchesStringWriter holds the appending writer to the string
// writer it replaced, byte for byte: a table with no rows, a cell wider
// than its header, an unpadded last column, short and long rows, t-test
// rows whose p-value prints as "<.001", and drawn tables. Every table
// goes through one Runner, so each reuses the arrays of the one before.
func TestTableMatchesStringWriter(t *testing.T) {
	cases := [][][]string{
		{{"pair", "ci-lower", "ci-upper"}},
		{{"m", "n"}, {"a-much-wider-cell", "1"}, {"b", "12345678"}},
		{{"level", "note"}, {"x", "an unpadded last column, long"}, {"yy", ""}},
		{{"a", "b", "c"}, {"1"}, {"1", "2", "3", "4", "5"}, {}, {"", "", ""}},
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		rows := make([][]string, 1+rng.Intn(6))
		for i := range rows {
			rows[i] = make([]string, rng.Intn(6))
			if i == 0 {
				rows[i] = append(rows[i], "h")
			}
			for j := range rows[i] {
				rows[i][j] = strings.Repeat("x", rng.Intn(12))
			}
		}
		cases = append(cases, rows)
	}
	var r Runner
	for _, rows := range cases {
		var got, want bytes.Buffer
		fillTable(&r, rows).write(&got, "")
		(&refTable{header: rows[0], rows: rows[1:]}).write(&want)
		if got.String() != want.String() {
			t.Fatalf("table %q:\n got %q\nwant %q", rows, got.String(), want.String())
		}
	}

	results := []stats.TTestResult{
		{CILower: -1.2345, CIUpper: 0.5, T: -2.5, P: 0.0004, MeanDiff: -0.3675},
		{CILower: 0, CIUpper: 12.0625, T: 31.415, P: 0.001, MeanDiff: 6.03125},
		{CILower: -0.0005, CIUpper: 0.0005, T: 0, P: 1, MeanDiff: -0},
		{CILower: 2.675, CIUpper: 1.005, T: 9.995, P: 0.0009999, MeanDiff: 1e6},
	}
	ref := refTable{header: []string{"pair", "ci-lower", "ci-upper", "t-value", "p-value", "mean-diff"}}
	tb := r.pairTable()
	for i, res := range results {
		name := strings.Repeat("obfs4-", i) + "tor"
		ref.rows = append(ref.rows, refPairRow(name, res))
		tb.row()
		tb.cell(name)
		tb.pair(res)
	}
	var got, want bytes.Buffer
	tb.write(&got, "")
	ref.write(&want)
	if got.String() != want.String() {
		t.Fatalf("t-test table:\n got %q\nwant %q", got.String(), want.String())
	}
	if !strings.Contains(got.String(), "<.001") {
		t.Fatalf("no p-value printed as <.001:\n%s", got.String())
	}
}

// TestTableRowsAllocateNothing: once a Runner has written a table, a
// t-test, grid, box or ECDF table of no more rows allocates nothing, so
// no row costs an allocation.
func TestTableRowsAllocateNothing(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector adds allocations of its own")
	}
	rng := rand.New(rand.NewSource(1))
	data := map[string]*accessData{}
	order := append([]string{"tor"}, pt.Names()...)
	for _, m := range order {
		d := &accessData{Name: m}
		for range 8 {
			d.Times = append(d.Times, rng.Float64()*10)
		}
		data[m] = d
	}
	g := grid[*accessData]{cells: []*accessData{data["tor"], data["obfs4"], data["meek"]}, labels: []string{"idle", "low", "high"}, methods: []string{"tor", "obfs4"}}
	r := &Runner{out: io.Discard}
	box := plot.Box{Label: "obfs4@high", Stats: stats.Summarize(data["obfs4"].Times)}
	for _, c := range []struct {
		name   string
		render func()
	}{
		{"all pairs", func() { r.writeAllPairs("t", data, times, order) }},
		{"grid pairs", func() {
			g.writePairsVsFirst(r, "t", func(c *accessData, _ string) []float64 { return c.Times })
		}},
		{"boxes", func() {
			for range 13 {
				r.boxes = append(r.boxes, box)
			}
			r.writeBoxes("t")
		}},
		{"ecdf", func() {
			for _, m := range order {
				r.curve(m, data[m].Times)
			}
			r.writeECDF("t")
		}},
	} {
		c.render()
		if n := testing.AllocsPerRun(20, c.render); n != 0 {
			t.Errorf("%s: %v allocations per table after the first, want 0", c.name, n)
		}
	}
}
