package plot

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ptperf/internal/stats"
)

func sample(rng *rand.Rand, mean float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + rng.NormFloat64()
	}
	return xs
}

func TestBoxesRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	rows := []Box{
		{Label: "tor", Stats: stats.Summarize(sample(rng, 5, 50))},
		{Label: "marionette", Stats: stats.Summarize(sample(rng, 25, 50))},
	}
	Boxes(&buf, "access time", rows, 60, false)
	out := buf.String()
	for _, want := range []string{"tor", "marionette", "#", "[", "]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// The slow method's median marker must sit to the right of the
	// fast method's.
	lines := strings.Split(out, "\n")
	fast := strings.Index(lines[1], "#")
	slow := strings.Index(lines[2], "#")
	if slow <= fast {
		t.Fatalf("marionette median (%d) should plot right of tor (%d)\n%s", slow, fast, out)
	}
}

// TestBoxesLinesMatchFmt holds a box row's label, numbers and axis to
// the fmt verbs Boxes once printed them with: labels padded by runes
// (%-*s), quartiles as %.2f, the axis as %-*.2f%*.2f.
func TestBoxesLinesMatchFmt(t *testing.T) {
	rows := []Box{
		{Label: "tor", Stats: stats.Summarize([]float64{1, 2.675, 3, 9.995})},
		{Label: "pré-été", Stats: stats.Summarize([]float64{-0.005, 4, 5})},
		{Label: "nothing-measured-here"},
	}
	var buf bytes.Buffer
	Boxes(&buf, "t", rows, 21, false)
	lines := strings.Split(buf.String(), "\n")
	labelW := len("pré-été")
	for i, r := range rows {
		got := lines[1+i]
		if !strings.HasPrefix(got, fmt.Sprintf("%-*s  ", labelW, r.Label)) {
			t.Fatalf("row %d = %q: label not padded like %%-*s", i, got)
		}
		want := "(no data)"
		if r.Stats.N > 0 {
			want = fmt.Sprintf("%.2f/%.2f/%.2f", r.Stats.Q1, r.Stats.Median, r.Stats.Q3)
		}
		if !strings.HasSuffix(got, "  "+want) {
			t.Fatalf("row %d = %q, want it to end in %q", i, got, want)
		}
	}
	if want := fmt.Sprintf("%-*s  %-*.2f%*.2f", labelW, "", 10, -0.005, 11, 9.995); lines[4] != want {
		t.Fatalf("axis = %q, want %q", lines[4], want)
	}
}

func TestBoxesEmptyAndDegenerate(t *testing.T) {
	var buf bytes.Buffer
	Boxes(&buf, "x", nil, 40, false)
	if buf.Len() != 0 {
		t.Fatal("no rows should render nothing")
	}
	Boxes(&buf, "x", []Box{{Label: "a"}}, 40, false)
	if buf.Len() != 0 {
		t.Fatal("all-empty rows should render nothing")
	}
}

func TestBoxesNeverPanics(t *testing.T) {
	f := func(vals []float64, logScale bool) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if v == v && v > -1e12 && v < 1e12 { // drop NaN/huge
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var buf bytes.Buffer
		Boxes(&buf, "t", []Box{{Label: "x", Stats: stats.Summarize(clean)}}, 30, logScale)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	ECDF(&buf, "ttfb", []Series{
		{Label: "fast", Values: sample(rng, 2, 80)},
		{Label: "slow", Values: sample(rng, 8, 80)},
	}, 50, 10)
	out := buf.String()
	if !strings.Contains(out, "a = fast") || !strings.Contains(out, "b = slow") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "1.00 |") || !strings.Contains(out, "0.00 |") {
		t.Fatalf("probability axis missing:\n%s", out)
	}
	// The fast curve must reach the top (p=1) earlier (left of) slow.
	topLine := strings.Split(out, "\n")[1]
	firstA := strings.Index(topLine, "a")
	firstB := strings.Index(topLine, "b")
	if firstA == -1 || (firstB != -1 && firstA > firstB) {
		t.Fatalf("fast curve should saturate first:\n%s", out)
	}
}

func TestECDFEmpty(t *testing.T) {
	var buf bytes.Buffer
	ECDF(&buf, "x", nil, 40, 10)
	ECDF(&buf, "x", []Series{{Label: "e"}}, 40, 10)
	if buf.Len() != 0 {
		t.Fatal("empty series should render nothing")
	}
}

func TestProject(t *testing.T) {
	if p := project(5, 0, 10, false); p != 0.5 {
		t.Fatalf("linear midpoint: %v", p)
	}
	if p := project(10, 1, 100, true); p < 0.49 || p > 0.51 {
		t.Fatalf("log midpoint: %v", p)
	}
}

func TestSparkSVG(t *testing.T) {
	empty := SparkSVG(nil, 100, 20)
	if !strings.HasPrefix(empty, "<svg") || strings.Contains(empty, "polyline") {
		t.Fatalf("empty input should render a bare frame, got %q", empty)
	}
	got := SparkSVG([]float64{1, 5, 2}, 100, 20)
	if !strings.Contains(got, `width="100"`) || !strings.Contains(got, "<polyline") {
		t.Fatalf("svg = %q", got)
	}
	if got != SparkSVG([]float64{1, 5, 2}, 100, 20) {
		t.Fatal("SparkSVG not deterministic")
	}
	// One coordinate pair per value.
	points := strings.Split(strings.Split(strings.Split(got, `points="`)[1], `"`)[0], " ")
	if len(points) != 3 {
		t.Fatalf("%d points, want 3: %q", len(points), got)
	}
}
