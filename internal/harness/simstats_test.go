package harness

import (
	"io"
	"testing"
)

// TestBulkCampaignParks bounds the goroutine parks and spawns of the
// bulk benchmark's campaign (fig5 at sizes 5, 10 and 20 MB, byte scale
// 0.06, 4 sites, seed 1): 108 982 parks while pt.Splice's pumps were
// goroutines and the tunnel streams had no threshold read, and 53 541
// parks and 2 198 spawns while tor's client read loop, SENDME
// sends, PT-link flusher and exit pump were goroutines, 17 221 parks
// and 734 spawns while every server's accept loop was one, and 16 572
// parks and 253 spawns while every relay link was a read loop and
// EXTEND, BEGIN and a relay's destroys parked.
func TestBulkCampaignParks(t *testing.T) {
	r := New(Config{
		Seed:         1,
		ByteScale:    0.06,
		Sites:        4,
		Repeats:      1,
		FileAttempts: 1,
		FileSizesMB:  []int{5, 10, 20},
		Jobs:         1,
	}, io.Discard)
	if err := r.Run("fig5"); err != nil {
		t.Fatal(err)
	}
	st := r.SimStats()
	t.Logf("spawns %d, parks %d, events %d, ready events %d, timer heap high-water %d", st.Spawns, st.Parks, st.Events, st.ReadyEvents, st.TimersHigh)
	if st.Parks > 11700 {
		t.Errorf("the bulk campaign parked %d times, want at most 11700", st.Parks)
	}
	if st.Spawns > 310 {
		t.Errorf("the bulk campaign spawned %d goroutines, want at most 310", st.Spawns)
	}
}
