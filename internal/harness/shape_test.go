package harness

import (
	"io"
	"testing"

	"ptperf/internal/stats"
)

// TestPaperShapeHolds asserts the paper's qualitative findings on a
// small but statistically meaningful campaign. This is the regression
// guard for the reproduction itself: if a transport model drifts, this
// fails.
//
// Every expectation is derived from the campaign's own report — ordinal
// relations on medians (robust to a single timeout draw, unlike the
// means this test used to compare) and counts taken from the recorded
// attempts — so a marginal seed-stream shift moves both sides of each
// comparison together instead of breaking a hard-coded constant.
func TestPaperShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale test")
	}
	cfg := Config{
		Seed:         3,
		ByteScale:    0.1,
		Sites:        8,
		Repeats:      1,
		FileAttempts: 2,
		FileSizesMB:  []int{20, 50},
		Transports:   []string{"tor", "obfs4", "webtunnel", "dnstt", "camoufler", "marionette", "meek"},
	}
	r := New(cfg, io.Discard)

	curl, err := submit(r, r.cfg.curlCell()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	median := func(name string) float64 {
		d, ok := curl[name]
		if !ok || len(d.Times) == 0 {
			t.Fatalf("no curl data for %s", name)
		}
		return stats.Quantile(d.Times, 0.5)
	}

	// §4.2: marionette is the slowest transport — strictly slower than
	// everything else measured, and dwarfing the fast group.
	for _, other := range []string{"tor", "obfs4", "webtunnel", "dnstt", "camoufler", "meek"} {
		if median("marionette") <= median(other) {
			t.Errorf("marionette (%.2f) should be slower than %s (%.2f)", median("marionette"), other, median(other))
		}
	}
	for _, fast := range []string{"tor", "obfs4", "webtunnel"} {
		if median("marionette") < 2*median(fast) {
			t.Errorf("marionette (%.2f) should dwarf %s (%.2f)", median("marionette"), fast, median(fast))
		}
	}
	// §4.2: tunneling PTs pay their carrier protocol: dnstt and
	// camoufler slower than vanilla Tor.
	for _, tunneled := range []string{"dnstt", "camoufler"} {
		if median(tunneled) <= median("tor") {
			t.Errorf("%s (%.2f) should exceed tor (%.2f)", tunneled, median(tunneled), median("tor"))
		}
	}
	// §4.2: the fully-encrypted/tunneling leaders sit near vanilla Tor.
	for _, fast := range []string{"obfs4", "webtunnel"} {
		if median(fast) > 1.5*median("tor") {
			t.Errorf("%s (%.2f) should be near tor (%.2f)", fast, median(fast), median("tor"))
		}
	}

	// §4.6: bulk-download reliability splits, from the recorded
	// attempts themselves.
	files, err := submit(r, r.cfg.filesCell()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	attempts := func(name string) (complete, unfinished int) {
		fd, ok := files[name]
		if !ok || len(fd.Attempts) == 0 {
			t.Fatalf("no file data for %s", name)
		}
		c, p, f := fd.counts()
		if c+p+f != len(fd.Attempts) {
			t.Fatalf("%s: counts %d+%d+%d disagree with %d attempts", name, c, p, f, len(fd.Attempts))
		}
		return c, p + f
	}
	// obfs4 completes bulk downloads.
	if c, _ := attempts("obfs4"); c == 0 {
		t.Error("obfs4 should complete bulk downloads")
	}
	// meek's bridge budget (median "3 MB") cuts downloads at these
	// sizes; marionette's automaton pacing times them out.
	if c, cut := attempts("meek"); cut == 0 {
		t.Errorf("meek bulk downloads should be cut by the bridge budget (complete=%d)", c)
	}
	if c, cut := attempts("marionette"); cut == 0 {
		t.Errorf("marionette bulk downloads should time out (complete=%d)", c)
	}

	// §4.4: marionette/camoufler/meek have the worst TTFB tail.
	ttfbTor := stats.Quantile(curl["tor"].TTFBs, 0.8)
	ttfbCam := stats.Quantile(curl["camoufler"].TTFBs, 0.8)
	if ttfbCam <= ttfbTor {
		t.Errorf("camoufler p80 TTFB (%.2f) should exceed tor (%.2f)", ttfbCam, ttfbTor)
	}
}
