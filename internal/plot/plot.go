// Package plot renders the paper's figure types as ASCII: horizontal
// box plots (Figures 2, 3a, 5, 7, 10b, 11, 12) and ECDF step curves
// (Figures 3b, 6, 8b). The harness attaches these under the numeric
// tables when plotting is enabled, so the reproduction emits figure-
// shaped artifacts, not just numbers.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"

	"ptperf/internal/stats"
)

// Box renders one labelled box-and-whisker row.
type Box struct {
	// Label names the row.
	Label string
	// Stats is the five-number summary to draw.
	Stats stats.Box
}

// Boxes draws horizontal box plots on a shared axis.
//
//	tor    |----[==|==]-------|        1.2/2.0/3.4
//
// Whiskers span min..max, the box Q1..Q3, the pipe the median.
func Boxes(w io.Writer, title string, rows []Box, width int, logScale bool) {
	if width <= 0 {
		width = 60
	}
	if len(rows) == 0 {
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	labelW := 0
	for _, r := range rows {
		if r.Stats.N == 0 {
			continue
		}
		lo = math.Min(lo, r.Stats.Min)
		hi = math.Max(hi, r.Stats.Max)
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	if math.IsInf(lo, 1) || hi <= lo {
		return
	}
	x := func(v float64) int {
		f := project(v, lo, hi, logScale)
		col := int(f * float64(width-1))
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		return col
	}

	fmt.Fprintln(w, title)
	line := make([]byte, width)
	var buf []byte // each output line, reused
	for _, r := range rows {
		// The label is left-justified to labelW as fmt's %-*s would:
		// padded by runes, not bytes.
		buf = append(buf[:0], r.Label...)
		buf = appendSpaces(buf, labelW-utf8.RuneCountInString(r.Label))
		if r.Stats.N == 0 {
			buf = append(buf, "  (no data)\n"...)
			w.Write(buf)
			continue
		}
		for i := range line {
			line[i] = ' '
		}
		span(line, x(r.Stats.Min), x(r.Stats.Q1), '-')
		span(line, x(r.Stats.Q3), x(r.Stats.Max), '-')
		span(line, x(r.Stats.Q1), x(r.Stats.Q3), '=')
		line[x(r.Stats.Min)] = '|'
		line[x(r.Stats.Max)] = '|'
		line[x(r.Stats.Q1)] = '['
		line[x(r.Stats.Q3)] = ']'
		line[x(r.Stats.Median)] = '#'
		buf = append(buf, "  "...)
		buf = append(buf, line...)
		buf = append(buf, "  "...)
		buf = AppendFixed(buf, r.Stats.Q1, 2)
		buf = append(buf, '/')
		buf = AppendFixed(buf, r.Stats.Median, 2)
		buf = append(buf, '/')
		buf = AppendFixed(buf, r.Stats.Q3, 2)
		w.Write(append(buf, '\n'))
	}
	buf = appendSpaces(buf[:0], labelW+2)
	buf = appendPadded(buf, lo, 2, -(width / 2))
	buf = appendPadded(buf, hi, 2, width-width/2)
	if logScale {
		buf = append(buf, "  (log scale)"...)
	}
	w.Write(append(buf, "\n\n"...))
}

func span(line []byte, a, b int, ch byte) {
	if a > b {
		a, b = b, a
	}
	for i := a; i <= b && i < len(line); i++ {
		line[i] = ch
	}
}

// project maps v in [lo,hi] to [0,1], optionally logarithmically.
func project(v, lo, hi float64, logScale bool) float64 {
	if logScale && lo > 0 {
		return (math.Log(v) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	}
	return (v - lo) / (hi - lo)
}

// Series is one ECDF curve.
type Series struct {
	// Label names the curve (a letter tags it in the grid).
	Label string
	// Values is the sample.
	Values []float64
}

// ECDF draws step curves on a character grid: x is the value axis, y is
// cumulative probability 0..1.
func ECDF(w io.Writer, title string, series []Series, width, height int) {
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 12
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	valid := 0
	for _, s := range series {
		for _, v := range s.Values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(s.Values) > 0 {
			valid++
		}
	}
	if valid == 0 || hi <= lo {
		return
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	var e stats.ECDF // each curve's sorted sample, in one array
	for si, s := range series {
		if len(s.Values) == 0 {
			continue
		}
		mark := byte('a' + si%26)
		e.Load(s.Values)
		for col := 0; col < width; col++ {
			v := lo + (hi-lo)*float64(col)/float64(width-1)
			p := e.At(v)
			row := height - 1 - int(p*float64(height-1))
			grid[row][col] = mark
		}
	}
	fmt.Fprintln(w, title)
	var buf []byte // each output line, reused
	for y, row := range grid {
		p := 1 - float64(y)/float64(height-1)
		buf = appendPadded(buf[:0], p, 2, 4)
		buf = append(buf, " |"...)
		buf = append(buf, row...)
		w.Write(append(buf, '\n'))
	}
	fmt.Fprintf(w, "     +%s\n", strings.Repeat("-", width))
	buf = appendSpaces(buf[:0], 6)
	buf = appendPadded(buf, lo, 2, -(width / 2))
	buf = appendPadded(buf, hi, 2, width-width/2)
	w.Write(append(buf, '\n'))
	for si, s := range series {
		fmt.Fprintf(w, "      %c = %s\n", 'a'+si%26, s.Label)
	}
	fmt.Fprintln(w)
}

// SparkSVG renders values as a self-contained inline SVG polyline
// sparkline of the given pixel size — the HTML report's timeline glyph.
// Coordinates use one decimal, so the output is deterministic
// byte-for-byte. Empty input renders an empty SVG frame.
func SparkSVG(values []float64, width, height int) string {
	if width <= 0 {
		width = 240
	}
	if height <= 0 {
		height = 36
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, width, height, width, height)
	if len(values) > 0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		const pad = 2.0
		y := func(v float64) float64 {
			if hi <= lo {
				return float64(height) / 2
			}
			return pad + float64((1-(v-lo)/(hi-lo))*(float64(height)-2*pad))
		}
		x := func(i int) float64 {
			if len(values) == 1 {
				return float64(width) / 2
			}
			return pad + float64(float64(i)/float64(len(values)-1)*(float64(width)-2*pad))
		}
		b.WriteString(`<polyline fill="none" stroke="#36c" stroke-width="1.5" points="`)
		var num [32]byte
		for i, v := range values {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.Write(AppendFixed(num[:0], x(i), 1))
			b.WriteByte(',')
			b.Write(AppendFixed(num[:0], y(v), 1))
		}
		b.WriteString(`"/>`)
	}
	b.WriteString(`</svg>`)
	return b.String()
}
