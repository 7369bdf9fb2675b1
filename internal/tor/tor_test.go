package tor

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
)

// A Stream's read half is its netem.Inbox: the embedding must keep it a
// netem.Stream, threshold read and all.
var _ netem.Stream = (*Stream)(nil)

// testWorld builds a small Tor network plus an echo server.
type testWorld struct {
	net    *netem.Network
	dir    *Directory
	client *netem.Host
	target string
	relays []*Relay
}

func buildWorld(t testing.TB, nGuard, nMiddle, nExit int) *testWorld {
	t.Helper()
	n := netem.New(netem.WithSeed(11))
	t.Cleanup(n.Clock().Shutdown)
	dir := NewDirectory()
	w := &testWorld{net: n, dir: dir}

	locs := []geo.Location{geo.Frankfurt, geo.London, geo.NewYork}
	mk := func(kind string, i int, flags Flag) {
		host := n.MustAddHost(netem.HostConfig{
			Name:     fmt.Sprintf("%s-%d", kind, i),
			Location: locs[i%len(locs)],
			// Generous links so protocol tests are latency-bound.
			UplinkBps: 50 << 20, DownlinkBps: 50 << 20,
		})
		r, err := StartRelay(RelayConfig{
			Name: fmt.Sprintf("%s-%d", kind, i), Host: host,
			Directory: dir, Flags: flags, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		w.relays = append(w.relays, r)
	}
	for i := 0; i < nGuard; i++ {
		mk("guard", i, FlagGuard|FlagFast)
	}
	for i := 0; i < nMiddle; i++ {
		mk("middle", i, FlagFast)
	}
	for i := 0; i < nExit; i++ {
		mk("exit", i, FlagExit|FlagFast)
	}

	w.client = n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	web := n.MustAddHost(netem.HostConfig{Name: "web", Location: geo.NewYork})
	ln, err := web.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	w.target = "web:80"
	n.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := c
			n.Go(func() {
				defer conn.Close()
				io.Copy(conn, conn) // echo until client half-closes
			})
		}
	})
	return w
}

func newTestClient(t testing.TB, w *testWorld, mut func(*ClientConfig)) *Client {
	t.Helper()
	cfg := ClientConfig{Host: w.client, Directory: w.dir, Seed: 42}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestThreeHopEcho(t *testing.T) {
	w := buildWorld(t, 2, 2, 2)
	c := newTestClient(t, w, nil)

	conn, err := c.Dial(w.target)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msg := bytes.Repeat([]byte("tor-cell-data."), 300) // > several cells
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo corrupted through 3 hops")
	}

	p := c.Path()
	if p.Guard == nil || p.Middle == nil || p.Exit == nil {
		t.Fatal("path incomplete")
	}
	if !p.Guard.Flags.Has(FlagGuard) || !p.Exit.Flags.Has(FlagExit) {
		t.Fatal("path violates flags")
	}
	if p.Guard.Name == p.Middle.Name || p.Middle.Name == p.Exit.Name || p.Guard.Name == p.Exit.Name {
		t.Fatal("path repeats a relay")
	}
}

func TestLargeTransferFlowControl(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	conn, err := c.Dial(w.target)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// More data than a full circuit window (1000 cells ≈ 498 KB) to
	// force SENDME exchanges in both directions.
	payload := make([]byte, 700<<10)
	rnd := rand.New(rand.NewSource(5))
	rnd.Read(payload)

	errc := netem.NewChan[error](w.net.Clock(), 1)
	w.net.Go(func() {
		_, err := conn.Write(payload)
		errc.Send(err)
	})
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if err, _ := errc.Recv(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large transfer corrupted")
	}
}

func TestGuardPersistence(t *testing.T) {
	w := buildWorld(t, 3, 2, 2)
	c := newTestClient(t, w, nil)
	g1 := c.Guard()
	for i := 0; i < 5; i++ {
		c.NewCircuit()
		if err := c.Preheat(); err != nil {
			t.Fatal(err)
		}
		if got := c.Path().Guard.Name; got != g1.Name {
			t.Fatalf("guard changed: %s -> %s", g1.Name, got)
		}
	}
}

func TestFixedCircuit(t *testing.T) {
	w := buildWorld(t, 2, 2, 2)
	g, _ := w.dir.Lookup("guard-0")
	m, _ := w.dir.Lookup("middle-1")
	e, _ := w.dir.Lookup("exit-0")
	c := newTestClient(t, w, func(cfg *ClientConfig) {
		cfg.Guard, cfg.Middle, cfg.Exit = g, m, e
	})
	for i := 0; i < 3; i++ {
		c.NewCircuit()
		if err := c.Preheat(); err != nil {
			t.Fatal(err)
		}
		p := c.Path()
		if p.Guard.Name != "guard-0" || p.Middle.Name != "middle-1" || p.Exit.Name != "exit-0" {
			t.Fatalf("pinned path not honored: %+v", p)
		}
	}
}

// TestStreamRefused dials a target the exit cannot reach: its END for
// the pending stream refuses the BEGIN at once, rather than leaving
// openStream to wait out the build timeout.
func TestStreamRefused(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	clock := w.net.Clock()
	start := clock.Now()
	if _, err := c.Dial("nonexistent:80"); !errors.Is(err, ErrStreamRefused) {
		t.Fatalf("dialing a dead target returned %v, want %v", err, ErrStreamRefused)
	}
	if d := clock.Now() - start; d >= c.cfg.BuildTimeout {
		t.Fatalf("the refusal took %v, the build timeout is %v", d, c.cfg.BuildTimeout)
	}
}

func TestMultipleStreamsOneCircuit(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	p0 := c.Path()

	const streams = 4
	errs := netem.NewChan[error](w.net.Clock(), streams)
	for i := 0; i < streams; i++ {
		i := i
		w.net.Go(func() {
			conn, err := c.Dial(w.target)
			if err != nil {
				errs.Send(err)
				return
			}
			defer conn.Close()
			msg := []byte(fmt.Sprintf("stream-%d-payload", i))
			if _, err := conn.Write(msg); err != nil {
				errs.Send(err)
				return
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(conn, got); err != nil {
				errs.Send(err)
				return
			}
			if !bytes.Equal(got, msg) {
				errs.Send(fmt.Errorf("stream %d corrupted: %q", i, got))
				return
			}
			errs.Send(nil)
		})
	}
	for i := 0; i < streams; i++ {
		if err, _ := errs.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Path() != p0 {
		t.Fatal("streams should share one circuit")
	}
}

func TestNewCircuitChangesRelays(t *testing.T) {
	w := buildWorld(t, 1, 4, 4)
	c := newTestClient(t, w, nil)
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		c.NewCircuit()
		if err := c.Preheat(); err != nil {
			t.Fatal(err)
		}
		p := c.Path()
		seen[p.Middle.Name+"/"+p.Exit.Name] = true
	}
	if len(seen) < 2 {
		t.Fatal("circuit rotation never changed middle/exit")
	}
}

func TestCircuitBuildLatencyOrdering(t *testing.T) {
	// A full 3-hop build must cost strictly more virtual time than a
	// single stream open on a built circuit.
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)

	start := w.net.Now()
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	buildTime := w.net.Since(start)

	start = w.net.Now()
	conn, err := c.Dial(w.target)
	if err != nil {
		t.Fatal(err)
	}
	dialTime := w.net.Since(start)
	conn.Close()

	if buildTime <= dialTime {
		t.Fatalf("build (%v) should exceed stream open (%v)", buildTime, dialTime)
	}
}

func TestDirectoryPathSelectionProperties(t *testing.T) {
	dir := NewDirectory()
	for i := 0; i < 9; i++ {
		flags := FlagFast
		if i%3 == 0 {
			flags |= FlagGuard
		}
		if i%3 == 1 {
			flags |= FlagExit
		}
		dir.Publish(&Descriptor{
			Name: fmt.Sprintf("r%d", i), Addr: fmt.Sprintf("r%d:9001", i),
			Flags: flags, Bandwidth: float64(1+i) * 1e6,
		})
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		p, err := dir.SelectPath(rng, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Guard.Flags.Has(FlagGuard) {
			t.Fatal("guard lacks Guard flag")
		}
		if !p.Exit.Flags.Has(FlagExit) {
			t.Fatal("exit lacks Exit flag")
		}
		if p.Guard.Name == p.Middle.Name || p.Middle.Name == p.Exit.Name || p.Guard.Name == p.Exit.Name {
			t.Fatal("path repeats a relay")
		}
	}
}

func TestDirectoryDuplicatePublish(t *testing.T) {
	dir := NewDirectory()
	d := &Descriptor{Name: "x", Addr: "x:1", Flags: FlagFast, Bandwidth: 1}
	if err := dir.Publish(d); err != nil {
		t.Fatal(err)
	}
	if err := dir.Publish(d); err == nil {
		t.Fatal("duplicate publish should fail")
	}
}

func TestBandwidthWeightedSelection(t *testing.T) {
	dir := NewDirectory()
	dir.Publish(&Descriptor{Name: "big", Addr: "big:1", Flags: FlagGuard | FlagFast, Bandwidth: 9e6})
	dir.Publish(&Descriptor{Name: "small", Addr: "small:1", Flags: FlagGuard | FlagFast, Bandwidth: 1e6})
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[pickWeighted(rng, dir.WithFlag(FlagGuard)).Name]++
	}
	if counts["big"] < 5*counts["small"] {
		t.Fatalf("weighting off: %v", counts)
	}
}
