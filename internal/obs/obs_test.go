package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/netem"
	"ptperf/internal/testbed"
)

// smallWorld builds a two-site world that the test's cleanup closes.
func smallWorld(t *testing.T, seed int64) *testbed.World {
	t.Helper()
	w, err := testbed.New(testbed.Options{
		Seed:      seed,
		ByteScale: 0.06,
		TrancoN:   2,
		CBLN:      2,
	})
	if err != nil {
		t.Fatalf("build world: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

// runWorld builds a small world, runs a short curl campaign over it
// with a recorder attached, and returns the finished timeline plus the
// accounting snapshot taken at the same quiescent instant.
func runWorld(t *testing.T, seed int64) (*Timeline, netem.AcctSnapshot) {
	t.Helper()
	w := smallWorld(t, seed)
	rec := Attach(w, time.Second)
	for _, method := range []string{"tor", "obfs4"} {
		d, err := w.Deployment(method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if err := d.Preheat(); err != nil {
			t.Fatalf("%s preheat: %v", method, err)
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: 120 * time.Second}
		for _, site := range w.Tranco.Sites {
			c.Get(w.Origin.Addr(), site.Path, false)
		}
		d.FreshCircuit()
	}
	w.Net.Clock().Sleep(300 * time.Second)
	snap := w.Net.Acct().Snapshot()
	return rec.Close(), snap
}

// TestRecorderConservation is the package-level statement of the
// timeline contract: re-summing the interval deltas reconstructs the
// final snapshot exactly, with zero clamped regressions.
func TestRecorderConservation(t *testing.T) {
	tl, snap := runWorld(t, 7)
	if len(tl.Samples) == 0 {
		t.Fatal("campaign produced no samples")
	}
	if tl.Regressions != 0 {
		t.Fatalf("%d clamped regressions while sampling monotone counters", tl.Regressions)
	}
	if got := tl.AcctTotals(); got != snap {
		t.Fatalf("timeline totals diverge from final snapshot:\n  totals   %+v\n  snapshot %+v", got, snap)
	}
	if tl.Final != snap {
		t.Fatalf("Final snapshot mismatch:\n  final    %+v\n  snapshot %+v", tl.Final, snap)
	}
	if h := tl.Horizon(); h <= 0 {
		t.Fatalf("non-positive horizon %v", h)
	}
	for _, s := range tl.Samples[:len(tl.Samples)-1] {
		if s.T%tl.Interval != 0 {
			t.Fatalf("periodic sample at %v, off the %v grid", s.T, tl.Interval)
		}
	}
}

// TestRecorderDeterminism requires byte-identical Prometheus renderings
// from two runs of the same seed — the sampler is a chain of events on
// the virtual clock, so its samples are part of the deterministic event
// order.
func TestRecorderDeterminism(t *testing.T) {
	render := func() string {
		tl, _ := runWorld(t, 11)
		var b bytes.Buffer
		WritePrometheus(&b, []CellTimeline{{Cell: "world", Timeline: tl}})
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed rendered different Prometheus dumps:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestCloseAtATickInstantKeepsTheRest closes the recorder at the
// instant a periodic sample was just taken, after a conn closed at that
// instant too: the close still reaches the timeline, folded into the
// sample at that instant, and no two samples share one.
func TestCloseAtATickInstantKeepsTheRest(t *testing.T) {
	w := smallWorld(t, 1)
	clock := w.Net.Clock()
	rec := Attach(w, time.Second)
	conn, err := w.Client.Dial(w.Origin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() >= time.Second {
		t.Fatalf("dial took until %v, past the first sample", clock.Now())
	}
	clock.SleepUntil(time.Second) // armed after the tick, so it runs second
	if tl := rec.tl; tl.Horizon() != time.Second {
		t.Fatalf("no periodic sample at 1s before the close (horizon %v)", tl.Horizon())
	}
	conn.Close()
	tl := rec.Close()
	snap := w.Net.Acct().Snapshot()
	if snap.ConnsClosed == 0 {
		t.Fatal("closing the conn counted no closed conn")
	}
	if got := tl.AcctTotals(); got != snap {
		t.Fatalf("timeline totals diverge from the snapshot at Close:\n  totals   %+v\n  snapshot %+v", got, snap)
	}
	for i := 1; i < len(tl.Samples); i++ {
		if tl.Samples[i].T <= tl.Samples[i-1].T {
			t.Fatalf("sample %d at %v follows one at %v", i, tl.Samples[i].T, tl.Samples[i-1].T)
		}
	}
}

// TestAttachRegistersNoGoroutine: the sampler is a chain of clock
// events, so a world counts the same goroutines observed or not.
func TestAttachRegistersNoGoroutine(t *testing.T) {
	w := smallWorld(t, 1)
	clock := w.Net.Clock()
	before := clock.Registered()
	rec := Attach(w, time.Second)
	if got := clock.Registered(); got != before {
		t.Fatalf("Attach took the world from %d goroutines to %d", before, got)
	}
	clock.Sleep(3 * time.Second)
	if got := clock.Registered(); got != before {
		t.Fatalf("%d goroutines with a recorder sampling, %d before", got, before)
	}
	rec.Close()
}

// TestPrometheusShape pins the exposition-format essentials: HELP/TYPE
// headers, cell labels, cumulative counters ending at the timeline
// totals, and millisecond virtual timestamps.
func TestPrometheusShape(t *testing.T) {
	tl, snap := runWorld(t, 3)
	var b bytes.Buffer
	WritePrometheus(&b, []CellTimeline{{Cell: "world", Timeline: tl}})
	out := b.String()

	for _, want := range []string{
		"# TYPE ptperf_bytes_delivered_total counter",
		"# TYPE ptperf_bytes_buffered gauge",
		`cell="world"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	// The last ptperf_bytes_delivered_total line must carry the final
	// cumulative value (deltas re-summed).
	var last string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ptperf_bytes_delivered_total") {
			last = line
		}
	}
	if last == "" {
		t.Fatal("no ptperf_bytes_delivered_total samples")
	}
	fields := strings.Fields(last)
	if len(fields) != 3 {
		t.Fatalf("sample line %q: want `name value timestamp`", last)
	}
	if got := fields[1]; got != strconv.FormatInt(snap.BytesDelivered, 10) {
		t.Errorf("final cumulative bytes delivered = %s, want %d", got, snap.BytesDelivered)
	}
	if ms := int64(tl.Horizon() / time.Millisecond); fields[2] != strconv.FormatInt(ms, 10) {
		t.Errorf("final timestamp = %s, want %d (horizon ms)", fields[2], ms)
	}
}

// TestEmptyTimelines verifies nil/empty timelines render nothing but
// headers stay absent too (no metric families without samples).
func TestEmptyTimelines(t *testing.T) {
	var b bytes.Buffer
	WritePrometheus(&b, []CellTimeline{{Cell: "empty", Timeline: nil}, {Cell: "zero", Timeline: &Timeline{}}})
	if got := b.String(); strings.Contains(got, "ptperf_") {
		t.Fatalf("empty timelines produced samples:\n%s", got)
	}
}

// TestParseBenchHistory checks the JSONL parser skips bad lines.
func TestParseBenchHistory(t *testing.T) {
	in := `{"label":"a","ns":{"BenchmarkX":100}}
not json
{"label":"bad"}

{"label":"b","ns":{"BenchmarkX":90,"BenchmarkY":5}}
`
	got := ParseBenchHistory(strings.NewReader(in))
	if len(got) != 2 || got[0].Label != "a" || got[1].Label != "b" {
		t.Fatalf("parsed %+v, want entries a and b", got)
	}
	if got[1].NS["BenchmarkY"] != 5 {
		t.Fatalf("entry b = %+v", got[1])
	}
}

// TestParseBenchHistorySkipsLongLine: a line too long to buffer is one
// bad line like any other, not the end of the history.
func TestParseBenchHistorySkipsLongLine(t *testing.T) {
	in := `{"label":"a","ns":{"BenchmarkX":100}}` + "\n" +
		strings.Repeat("x", 2<<20) + "\n" +
		`{"label":"b","ns":{"BenchmarkX":90}}` + "\n"
	got := ParseBenchHistory(strings.NewReader(in))
	if len(got) != 2 || got[0].Label != "a" || got[1].Label != "b" {
		t.Fatalf("parsed %d entries %+v, want a and b", len(got), got)
	}
}

// TestWriteHTMLDeterministic renders the same report twice and requires
// identical bytes (no wall-clock state), and spot-checks the structure.
func TestWriteHTMLDeterministic(t *testing.T) {
	tl, _ := runWorld(t, 5)
	rep := HTMLReport{
		Title:    "test report",
		Config:   "seed=5",
		Sections: []Section{{ID: "fig2a", Title: "Access", Body: "tor 1.0 <ok>"}},
		Cells:    []CellTimeline{{Cell: "world", Timeline: tl}},
		History: []HistoryEntry{
			{Label: "r1", NS: map[string]float64{"BenchmarkSweep": 200}},
			{Label: "r2", NS: map[string]float64{"BenchmarkSweep": 150}},
		},
	}
	render := func() string {
		var b bytes.Buffer
		if err := WriteHTML(&b, rep); err != nil {
			t.Fatalf("WriteHTML: %v", err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("same report rendered differently twice")
	}
	for _, want := range []string{
		"test report", "fig2a", "&lt;ok&gt;", "<svg", "BenchmarkSweep", "world",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}
