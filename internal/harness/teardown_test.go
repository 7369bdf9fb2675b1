package harness

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptperf/internal/testbed"
	"ptperf/internal/testkit"
)

// TestRunLeavesNoGoroutines: the multi-world experiments end every world
// they build, sequentially and four at a time.
func TestRunLeavesNoGoroutines(t *testing.T) {
	contention := Config{Seed: 5, ByteScale: 0.05, Sites: 2, Repeats: 1}
	for _, tc := range []struct {
		exp string
		cfg Config
	}{{"sweep", sweepConfig(11)}, {"contention", contention}} {
		for _, jobs := range []int{1, 4} {
			before := runtime.NumGoroutine()
			tc.cfg.Jobs = jobs
			if err := New(tc.cfg, io.Discard).Run(tc.exp); err != nil {
				t.Fatalf("%s: %v", tc.exp, err)
			}
			if after := testkit.SettleAt(before); after > before {
				t.Errorf("%s at jobs=%d: %d goroutines after the run, %d before", tc.exp, jobs, after, before)
			}
		}
	}
}

// failsMidCampaign and panicsMidCampaign leave a world in full swing: a
// deployment is up, a download is running on a simulation goroutine.
func failsMidCampaign(w *testbed.World, how string) (int, error) {
	d, err := w.Deployment("obfs4")
	if err != nil {
		return 0, err
	}
	clock := w.Net.Clock()
	clock.Go(func() {
		if conn, err := d.Dial(w.Origin.Addr()); err == nil {
			defer conn.Close()
			clock.Sleep(time.Hour)
		}
		if how == "panic on a simulation goroutine" {
			panic(how)
		}
	})
	clock.Sleep(time.Minute)
	switch how {
	case "error":
		return 0, errors.New("measure gave up")
	case "panic on the driver":
		panic(how)
	}
	clock.Sleep(2 * time.Hour)
	return 0, errors.New("unreachable: the goroutine's panic comes out of this sleep")
}

// TestFailedCellLeavesNoGoroutines: compute closes the world of a cell
// whose measure returns an error or panics, on the driver or on a
// simulation goroutine.
func TestFailedCellLeavesNoGoroutines(t *testing.T) {
	for how, want := range map[string]string{
		"error":                           "measure gave up",
		"panic on the driver":             "world task panic: panic on the driver",
		"panic on a simulation goroutine": "world task panic: panic on a simulation goroutine",
	} {
		before := runtime.NumGoroutine()
		r := New(tinyConfig(), io.Discard)
		_, err := submit(r, cell[string, int]{
			key:     "teardown:" + how,
			opts:    r.cfg.worldOptions(),
			in:      how,
			measure: failsMidCampaign,
		}).Wait()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: cell error %v, want %q", how, err, want)
		}
		if after := testkit.SettleAt(before); after > before {
			t.Errorf("%s: %d goroutines after the cell, %d before", how, after, before)
		}
	}
}
