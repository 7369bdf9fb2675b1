package testbed

import (
	"runtime"
	"testing"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/pt"
	"ptperf/internal/web"
)

func smallWorld(t *testing.T, seed int64) *World {
	t.Helper()
	w, err := New(Options{
		Seed:      seed,
		ByteScale: 0.1,
		Guards:    2, Middles: 2, Exits: 2,
		TrancoN: 4, CBLN: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func mustDeploy(t *testing.T, w *World, name string) *Deployment {
	t.Helper()
	d, err := w.Deployment(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fetchClient(w *World, d *Deployment, timeout time.Duration) *fetch.Client {
	return &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: timeout}
}

func TestVanillaTorFetch(t *testing.T) {
	w := smallWorld(t, 3)
	d := mustDeploy(t, w, "tor")
	c := fetchClient(w, d, 120*time.Second)
	res := c.Get(w.Origin.Addr(), w.Tranco.Sites[0].Path, false)
	if !res.Complete() {
		t.Fatalf("vanilla tor fetch failed: %+v", res)
	}
	if res.TTFB <= 0 || res.Total < res.TTFB {
		t.Fatalf("bad timing: %+v", res)
	}
}

// TestEveryTransportFetches is the full-stack integration: one page
// through all 12 PTs and vanilla Tor.
func TestEveryTransportFetches(t *testing.T) {
	w := smallWorld(t, 4)
	names := append([]string{"tor"}, pt.Names()...)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := w.Deployment(name)
			if err != nil {
				t.Fatal(err)
			}
			timeout := 240 * time.Second
			c := fetchClient(w, d, timeout)
			res := c.Get(w.Origin.Addr(), w.CBL.Sites[1].Path, false)
			if !res.Complete() {
				t.Fatalf("%s fetch failed: err=%v status=%d got=%d want=%d",
					name, res.Err, res.Status, res.BytesGot, res.BytesWanted)
			}
		})
	}
}

func TestSet1UsesBridgeAsGuard(t *testing.T) {
	w := smallWorld(t, 5)
	d := mustDeploy(t, w, "obfs4")
	if err := d.Preheat(); err != nil {
		t.Fatal(err)
	}
	p := d.tor.Path()
	if p.Guard == nil || p.Guard.Name != "obfs4-bridge-guard" {
		t.Fatalf("set-1 first hop should be the bridge guard, got %+v", p.Guard)
	}
}

func TestSet2UsesConsensusGuard(t *testing.T) {
	w := smallWorld(t, 6)
	d := mustDeploy(t, w, "shadowsocks")
	if err := d.Preheat(); err != nil {
		t.Fatal(err)
	}
	p := d.tor.Path()
	if p.Guard == nil {
		t.Fatal("no path")
	}
	if p.Guard.Name == "shadowsocks-server" {
		t.Fatal("set-2 guard must come from the consensus")
	}
}

func TestFreshCircuitChangesPath(t *testing.T) {
	w := smallWorld(t, 7)
	d := mustDeploy(t, w, "tor")
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		d.FreshCircuit()
		if err := d.Preheat(); err != nil {
			t.Fatal(err)
		}
		p := d.tor.Path()
		seen[p.Middle.Name+"/"+p.Exit.Name] = true
	}
	if len(seen) < 2 {
		t.Fatal("fresh circuits never changed the path")
	}
}

func TestBrowserThroughPT(t *testing.T) {
	w := smallWorld(t, 8)
	d := mustDeploy(t, w, "webtunnel")
	c := fetchClient(w, d, 240*time.Second)
	pr := c.Browse(w.Origin.Addr(), w.Tranco.Sites[2].Path, 6)
	if !pr.OK {
		t.Fatalf("browse through webtunnel failed: %+v", pr.Err)
	}
	if pr.SpeedIndex <= 0 || pr.SpeedIndex > pr.PageLoadTime {
		t.Fatalf("speed index %v vs PLT %v", pr.SpeedIndex, pr.PageLoadTime)
	}
}

// TestFileSizesScale scales Figure 5's sizes the way the campaign does
// (World.Bytes of each size in MB).
func TestFileSizesScale(t *testing.T) {
	w := smallWorld(t, 9)
	if len(web.FileSizesMB) != 5 {
		t.Fatalf("want 5 sizes, got %d", len(web.FileSizesMB))
	}
	prev := 0
	for _, mb := range web.FileSizesMB {
		size := w.Bytes(mb << 20)
		if want := int(float64(mb<<20) * w.Opts.ByteScale); size != want {
			t.Fatalf("%d MB scales to %d, want %d", mb, size, want)
		}
		if size <= prev {
			t.Fatal("sizes must increase")
		}
		prev = size
	}
	if got := w.Bytes(1); got != 1 {
		t.Fatalf("a scaled quantity is at least one byte, got %d", got)
	}
}

func TestUnknownTransport(t *testing.T) {
	w := smallWorld(t, 10)
	if _, err := w.Deployment("nope"); err == nil {
		t.Fatal("unknown transport must error")
	}
}

func TestDeploymentCached(t *testing.T) {
	w := smallWorld(t, 11)
	a := mustDeploy(t, w, "tor")
	b := mustDeploy(t, w, "tor")
	if a != b {
		t.Fatal("deployments must be cached per world")
	}
}

// TestCloseLeavesNothing builds everything a world can hold — every
// deployment, an overhead rig, a contention rig whose competitors are
// cut off mid-download — and closes it: the clock counts the driver
// alone, no conn is open, and the process has the goroutines it had
// before the world.
func TestCloseLeavesNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	w := smallWorld(t, 21)
	for _, name := range append([]string{"tor"}, pt.Names()...) {
		fetchPage(t, w, mustDeploy(t, w, name).Dial)
	}
	overhead, err := w.NewOverheadRig(OverheadPTs[0], 13)
	if err != nil {
		t.Fatal(err)
	}
	fetchPage(t, w, overhead.TorDial)
	fetchPage(t, w, overhead.PTDial)
	contended, err := w.NewContentionRig(ContentionLevels[1])
	if err != nil {
		t.Fatal(err)
	}
	contended.Start()
	clock := w.Net.Clock()
	clock.Sleep(ContentionLevels[1].RampTime())
	// Relays, PT servers and the origins wait as clock events, so what
	// is parked here is the workload: the competitors' downloads (58
	// goroutines while every relay link was a read loop, 5 while the
	// origins read their requests on goroutines).
	if r, open := clock.Registered(), w.Net.Acct().Snapshot().OpenConns(); r < 3 || open < 50 {
		t.Fatalf("the live world holds %d goroutines and %d open conns: too few to prove anything", r, open)
	}

	w.Close()
	w.Close()
	if r := clock.Registered(); r != 1 {
		t.Errorf("Registered() = %d after Close, want 1 (the driver)", r)
	}
	if open := w.Net.Acct().Snapshot().OpenConns(); open != 0 {
		t.Errorf("%d conn endpoints open after Close: %v", open, w.Net.Acct().OpenConnAddrs())
	}
	// (Fewer than before is the previous test's goroutine taking its
	// time to exit.)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d OS goroutines after Close, %d before the world", after, before)
	}
}

// TestWorldAtRestRunsNoGoroutine: a world just built, its relays and
// origin listening, registers its driver and no other goroutine, since
// an accept loop is a chain of clock events (netem.Listener.Serve). The
// options are the benchmark's probe world.
func TestWorldAtRestRunsNoGoroutine(t *testing.T) {
	w, err := New(Options{Seed: 1, ByteScale: 0.06, TrancoN: 4, CBLN: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if got := w.Net.Clock().Registered(); got != 1 {
		t.Fatalf("%d goroutines registered in a world at rest, want 1 (the driver)", got)
	}
}
