package sim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/netem"
	"ptperf/internal/sim"
	"ptperf/internal/testbed"
)

// worldSignature builds one full testbed world on its own seed stream,
// drives a small measurement through two transports, and renders every
// virtual-time observation into a string. Any cross-world interference
// — a shared RNG draw, a leaked scheduler wake-up, a reused buffer read
// before overwrite — shifts an arrival time somewhere and changes the
// signature.
func worldSignature(root int64, stream int64) (string, error) {
	w, err := testbed.New(testbed.Options{
		Seed:      sim.DeriveSeed(root, stream),
		ByteScale: 0.06,
		TrancoN:   3,
		CBLN:      3,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, method := range []string{"tor", "obfs4"} {
		d, err := w.Deployment(method)
		if err != nil {
			return "", err
		}
		if err := d.Preheat(); err != nil {
			return "", fmt.Errorf("%s preheat: %w", method, err)
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial}
		for _, site := range w.Tranco.Sites {
			res := c.Get(w.Origin.Addr(), site.Path, false)
			fmt.Fprintf(&b, "%s %s total=%v ttfb=%v bytes=%d\n",
				method, site.Path, res.Total, res.TTFB, res.BytesGot)
		}
		d.FreshCircuit()
	}
	return b.String(), nil
}

// TestConcurrentWorldsMatchSequential is the shard-isolation stress
// test: N independent worlds driven concurrently (each task goroutine
// is its own world's scheduler driver) must report byte-for-byte what
// the same worlds report when run one at a time. Run it with -race to
// also catch cross-world shared mutable state in netem/testbed (the
// waiter and segment pools, package vars).
func TestConcurrentWorldsMatchSequential(t *testing.T) {
	const worlds = 6
	sequential := make([]string, worlds)
	for i := range sequential {
		sig, err := worldSignature(1, int64(i))
		if err != nil {
			t.Fatalf("sequential world %d: %v", i, err)
		}
		sequential[i] = sig
	}
	// Distinct streams must actually produce distinct worlds, or the
	// comparison below proves nothing.
	for i := 1; i < worlds; i++ {
		if sequential[i] == sequential[0] {
			t.Fatalf("worlds 0 and %d have identical signatures; seed streams broken", i)
		}
	}

	e := sim.NewExecutor(worlds) // all in flight at once
	futures := make([]*sim.Future[string], worlds)
	for i := range futures {
		i := i
		futures[i] = sim.Submit(e, func() (string, error) {
			return worldSignature(1, int64(i))
		})
	}
	for i, f := range futures {
		sig, err := f.Wait()
		if err != nil {
			t.Fatalf("concurrent world %d: %v", i, err)
		}
		if sig != sequential[i] {
			t.Errorf("world %d diverged under concurrency:\n--- sequential ---\n%s--- concurrent ---\n%s",
				i, sequential[i], sig)
		}
	}
}

// TestSimulationGoroutinePanicBecomesError: simulation goroutines are
// coroutines of the task goroutine, so a panic on one comes out of the
// task's own wait and lands in the future like any other task panic.
func TestSimulationGoroutinePanicBecomesError(t *testing.T) {
	e := sim.NewExecutor(1)
	f := sim.Submit(e, func() (int, error) {
		clock := netem.NewClock()
		clock.Go(func() {
			clock.Sleep(time.Millisecond)
			panic("child kaput")
		})
		clock.Sleep(time.Second)
		return 1, nil
	})
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "child kaput") {
		t.Fatalf("Err() = %v, want the child's panic value", err)
	}
	// The executor slot must have been released.
	if v, err := sim.Submit(e, func() (int, error) { return 7, nil }).Wait(); err != nil || v != 7 {
		t.Fatalf("executor dead after panic: (%d, %v)", v, err)
	}
}
