package harness

import (
	"io"
	"testing"
)

// TestBulkCampaignParks bounds the goroutine parks of the bulk
// benchmark's campaign (fig5 at sizes 5, 10 and 20 MB, byte scale 0.06,
// 4 sites, seed 1): 108 982 while pt.Splice's pumps were goroutines and
// the tunnel streams had no threshold read.
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
	t.Logf("parks %d, events %d, ready events %d", st.Parks, st.Events, st.ReadyEvents)
	if st.Parks > 60000 {
		t.Errorf("the bulk campaign parked %d times, want at most 60000", st.Parks)
	}
}
