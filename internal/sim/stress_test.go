package sim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/netem"
	"ptperf/internal/sim"
	"ptperf/internal/testbed"
)

// worldSignature builds one full testbed world on its own seed stream,
// drives a small measurement through three transports — between them
// they lease from every pool on the access path: the fetch, origin and
// stegotorus readers and writers, the body chunk, the cover scratch, the
// stream and splice buffers, the handshake generators — and renders
// every virtual-time observation into a string. Any cross-world
// interference — a shared RNG draw, a leaked scheduler wake-up, a pooled
// buffer read after it went back or before it was overwritten — shifts
// an arrival time or a byte count somewhere and changes the signature.
// built, if not nil, is handed the world before anything runs in it.
func worldSignature(root int64, stream int64, built func(*testbed.World)) (string, error) {
	w, err := testbed.New(testbed.Options{
		Seed:      sim.DeriveSeed(root, stream),
		ByteScale: 0.06,
		TrancoN:   3,
		CBLN:      3,
	})
	if err != nil {
		return "", err
	}
	defer w.Close()
	if built != nil {
		built(w)
	}
	var b strings.Builder
	for _, method := range []string{"tor", "obfs4", "stegotorus"} {
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
		site := w.Tranco.Sites[0]
		pr := c.Browse(w.Origin.Addr(), site.Path, 0)
		fmt.Fprintf(&b, "%s browse %s plt=%v si=%v bytes=%d loaded=%d/%d\n",
			method, site.Path, pr.PageLoadTime, pr.SpeedIndex, pr.Bytes, pr.ResourcesLoaded, pr.ResourcesTotal)
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
		sig, err := worldSignature(1, int64(i), nil)
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
			return worldSignature(1, int64(i), nil)
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

// TestMonitorHorizonReadsRunningClocks covers the one reader of world
// state that lives outside the world (DESIGN.md "Cross-world
// isolation"): the progress monitor formats its status line, horizons
// included, on its caller's goroutine while the worlds run. Everything
// in a world is unlocked and non-atomic except Clock.now, so under -race
// the background poller is the test that a horizon reads nothing else;
// the signatures prove the polling did not disturb a world. Each world
// also reads the line once right after it attaches its horizon, so that
// the line shows the horizon of a running world does not hang on the
// poller winning a race with the worlds.
func TestMonitorHorizonReadsRunningClocks(t *testing.T) {
	const worlds = 4
	sequential := make([]string, worlds)
	for i := range sequential {
		sig, err := worldSignature(2, int64(i), nil)
		if err != nil {
			t.Fatalf("sequential world %d: %v", i, err)
		}
		sequential[i] = sig
	}

	m := sim.NewMonitor(nil)
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Line()
			runtime.Gosched()
		}
	}()

	e := sim.NewExecutor(worlds)
	futures := make([]*sim.Future[string], worlds)
	shown := make([]bool, worlds) // world i's own read showed its horizon
	for i := range futures {
		key := fmt.Sprintf("world-%d", i)
		m.Register(key)
		futures[i] = sim.Submit(e, func() (string, error) {
			m.Start(key)
			sig, err := worldSignature(2, int64(i), func(w *testbed.World) {
				m.Horizon(key, w.Net.Clock().Now)
				shown[i] = strings.Contains(m.Line(), key+"@")
			})
			m.Finish(key, err)
			return sig, err
		})
	}
	for i, f := range futures {
		sig, err := f.Wait()
		if err != nil {
			t.Fatalf("polled world %d: %v", i, err)
		}
		if sig != sequential[i] {
			t.Errorf("world %d diverged while its clock was polled:\n--- sequential ---\n%s--- polled ---\n%s",
				i, sequential[i], sig)
		}
	}
	close(stop)
	<-polled
	reads := 0
	for _, ok := range shown {
		if ok {
			reads++
		}
	}
	if reads != worlds {
		t.Errorf("the monitor formatted a running world's horizon in %d of %d reads", reads, worlds)
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
	if _, err := f.Wait(); err == nil || !strings.Contains(err.Error(), "child kaput") {
		t.Fatalf("Wait() error = %v, want the child's panic value", err)
	}
	// The executor slot must have been released.
	if v, err := sim.Submit(e, func() (int, error) { return 7, nil }).Wait(); err != nil || v != 7 {
		t.Fatalf("executor dead after panic: (%d, %v)", v, err)
	}
}
