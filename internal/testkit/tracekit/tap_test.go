package tracekit

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
)

// censoredAccesses builds a small world under bridge-block, with the
// censor as its network's policy or, if tapped, as the inner policy of
// a tap, and fetches a page through obfs4 and meek every 5 s from
// before the block until well after it. It returns each access's
// instant, time and error, what the censor counted, and the tap.
func censoredAccesses(t *testing.T, tapped bool) (string, censor.Stats, *Trace) {
	sc, err := censor.Lookup("bridge-block")
	if err != nil {
		t.Fatal(err)
	}
	w, err := testbed.New(testbed.Options{Seed: 3, ByteScale: 0.1, Guards: 2, Middles: 2, Exits: 2, TrancoN: 2, CBLN: 2, Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var tap *Trace
	if tapped {
		tap = New(w.Net).Tap(w.Censor)
	}
	var b strings.Builder
	for _, method := range []string{"obfs4", "meek"} {
		d, err := w.Deployment(method)
		if err != nil {
			t.Fatal(err)
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial}
		for range 4 {
			res := c.Get(w.Origin.Addr(), w.Tranco.Sites[0].Path, false)
			fmt.Fprintf(&b, "%s %d %d %v\n", method, w.Net.Now(), res.Total, res.Err)
			w.Net.Clock().Sleep(5 * time.Second)
		}
	}
	return b.String(), w.Censor.Stats(), tap
}

// TestTapOverCensor: a tap records a censored world without displacing
// its censor. The same world run under a tap that takes the censor's
// verdicts sees every access take the same virtual time and the censor
// count the same interference as with the censor alone, and its trace
// has a refusal line for each dial the censor refused.
func TestTapOverCensor(t *testing.T) {
	plain, plainStats, _ := censoredAccesses(t, false)
	tapped, tappedStats, tap := censoredAccesses(t, true)
	if tapped != plain {
		t.Errorf("accesses under the tap:\n%swant, with the censor alone:\n%s", tapped, plain)
	}
	if tappedStats != plainStats {
		t.Errorf("censor counted %+v under the tap, %+v alone", tappedStats, plainStats)
	}
	if plainStats.BlockedDials == 0 {
		t.Fatalf("bridge-block refused no dial; accesses:\n%s", plain)
	}
	if got := bytes.Count(tap.buf, []byte(" refused\n")); got != plainStats.BlockedDials {
		t.Errorf("trace has %d refusals, the censor refused %d dials; trace:\n%s", got, plainStats.BlockedDials, tap.buf)
	}
}
