package harness

import (
	"io"
	"testing"
)

// TestBulkCampaignParks bounds the goroutine parks and spawns of the
// bulk benchmark's campaign (fig5 at sizes 5, 10 and 20 MB, byte scale
// 0.06, 4 sites, seed 1), and of fig2b at the same config: 108 982
// parks on fig5 while pt.Splice's pumps were goroutines and the tunnel
// streams had no threshold read, and 53 541 parks and 2 198 spawns
// while tor's client read loop, SENDME sends, PT-link flusher and exit
// pump were goroutines, 17 221 parks and 734 spawns while every
// server's accept loop was one, 16 572 parks and 253 spawns while every
// relay link was a read loop and EXTEND, BEGIN and a relay's destroys
// parked, 9 624 parks on fig5 and 9 665 on fig2b while the origin and
// camoufler's IM provider read on goroutines of their own, and 191 and
// 1 472 spawns and 4 964 and 6 248 parks while netem.Listener.Serve
// spawned a goroutine for every accepted conn (19 and 694 spawns and
// 4 920 and 6 065 parks since).
func TestBulkCampaignParks(t *testing.T) {
	for _, tc := range []struct {
		exp           string
		parks, spawns uint64
	}{{"fig5", 5900, 30}, {"fig2b", 7300, 850}} {
		r := New(Config{
			Seed:         1,
			ByteScale:    0.06,
			Sites:        4,
			Repeats:      1,
			FileAttempts: 1,
			FileSizesMB:  []int{5, 10, 20},
			Jobs:         1,
		}, io.Discard)
		if err := r.Run(tc.exp); err != nil {
			t.Fatal(err)
		}
		st := r.SimStats()
		t.Logf("%s: spawns %d, parks %d, events %d, ready events %d, timer heap high-water %d", tc.exp, st.Spawns, st.Parks, st.Events, st.ReadyEvents, st.TimersHigh)
		if st.Parks > tc.parks {
			t.Errorf("the %s campaign parked %d times, want at most %d", tc.exp, st.Parks, tc.parks)
		}
		if st.Spawns > tc.spawns {
			t.Errorf("the %s campaign spawned %d goroutines, want at most %d", tc.exp, st.Spawns, tc.spawns)
		}
	}
}
