package harness

import (
	"bytes"
	"testing"
)

// lineWriter records every Write it is given.
type lineWriter struct{ writes [][]byte }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestTableWritePinned pins the text table layout byte for byte: a cell
// wider than its header widens the column, a short row is not padded
// past its last cell, a long row's cells beyond the header go out
// unpadded, and empty cells still take their column's width. Each line
// is one Write.
func TestTableWritePinned(t *testing.T) {
	tb := newTable("method", "n", "p50", "sd")
	tb.add("wider-than-its-header", "12", "3.45", "0.10")
	tb.add("short", "1")
	tb.add("long", "2", "1.00", "2.00", "extra", "", "tail")
	tb.add("", "", "", "")
	tb.add("last-empty", "3", "", "")
	empty := newTable("only")
	var w lineWriter
	tb.write(&w)
	empty.write(&w)
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
		"only\n" +
		"----\n"
	if got.String() != want {
		t.Fatalf("table bytes moved:\n got %q\nwant %q", got.String(), want)
	}
}
