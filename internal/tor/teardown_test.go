package tor

import (
	"io"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
)

func TestStreamEOFOnServerClose(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	conn, err := c.Dial(w.target)
	if err != nil {
		t.Fatal(err)
	}
	// The echo server closes when we half-close; we should see EOF,
	// not a hang or a non-EOF error.
	conn.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	conn.(*Stream).Close()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read after local close must fail")
	}
}

func TestCircuitSurvivesStreamChurn(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	p := c.Path()
	for i := 0; i < 20; i++ {
		conn, err := c.Dial(w.target)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		conn.Write([]byte("ping"))
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("stream %d read: %v", i, err)
		}
		conn.Close()
	}
	if c.Path() != p {
		t.Fatal("stream churn must not rebuild the circuit")
	}
}

func TestDialAfterGuardDeath(t *testing.T) {
	w := buildWorld(t, 2, 2, 2)
	c := newTestClient(t, w, nil)
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	// Kill the current circuit from below by closing the client's view.
	c.NewCircuit()
	conn, err := c.Dial(w.target)
	if err != nil {
		t.Fatalf("dial after teardown: %v", err)
	}
	conn.Close()
}

func TestBuildTimeoutOnDeadGuard(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	dead := &Descriptor{Name: "dead", Addr: "nosuchhost:9001", Flags: FlagGuard | FlagFast, Bandwidth: 1e6}
	c := newTestClient(t, w, func(cfg *ClientConfig) {
		cfg.Guard = dead
		cfg.BuildTimeout = 2 * time.Second
	})
	if err := c.Preheat(); err == nil {
		t.Fatal("building through a dead guard must fail")
	}
}

// TestMidTransferRelayCrashTearsDown crashes the middle relay while a
// bulk transfer is in flight and audits the blast radius: the stream
// must fail (not hang), the cell-scheduler accounting must balance with
// the crash's queue drops counted as Dropped, and no goroutine or conn
// may outlive the teardown. The middle's uplink is throttled so its
// scheduler still holds queued backward cells when the crash fires.
func TestMidTransferRelayCrashTearsDown(t *testing.T) {
	n := netem.New(netem.WithSeed(11))
	t.Cleanup(n.Clock().Shutdown)
	dir := NewDirectory()
	mkRelay := func(name string, flags Flag, uplink float64) *Relay {
		host := n.MustAddHost(netem.HostConfig{
			Name: name, Location: geo.Frankfurt,
			UplinkBps: uplink, DownlinkBps: 50 << 20,
		})
		r, err := StartRelay(RelayConfig{Name: name, Host: host, Directory: dir, Flags: flags, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mkRelay("guard-0", FlagGuard|FlagFast, 50<<20)
	mid := mkRelay("middle-0", FlagFast, 100<<10) // bottleneck: backward cells queue here
	mkRelay("exit-0", FlagExit|FlagFast, 50<<20)

	clientHost := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	web := n.MustAddHost(netem.HostConfig{Name: "web", Location: geo.NewYork})
	ln, err := web.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := c
			n.Go(func() { defer conn.Close(); io.Copy(conn, conn) })
		}
	})

	c, err := NewClient(ClientConfig{Host: clientHost, Directory: dir, Seed: 42, BuildTimeout: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	n.Clock().Sleep(time.Second) // settle bootstrap
	before := n.Clock().Registered()

	conn, err := c.Dial("web:80")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300<<10)
	n.Go(func() { conn.Write(payload) })
	// Read a little so the echo is moving and the bottleneck queue fills.
	if _, err := io.ReadFull(conn, make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}

	if !mid.Crash() {
		t.Fatal("crash refused")
	}
	if _, err := io.ReadFull(conn, make([]byte, len(payload)-(16<<10))); err == nil {
		t.Fatal("transfer survived a mid-path relay crash")
	}
	conn.Close()
	c.NewCircuit()
	n.Clock().Sleep(time.Second) // let the teardown cascade settle

	snap := n.Acct().Snapshot()
	if err := snap.CellConservationErr(); err != nil {
		t.Fatal(err)
	}
	if snap.CellsDropped == 0 {
		t.Fatal("mid-transfer crash dropped no queued cells")
	}
	for _, addr := range n.Acct().OpenConnAddrs() {
		t.Errorf("conn %s still open after crash teardown", addr)
	}
	if after := n.Clock().Registered(); after > before {
		t.Fatalf("goroutines grew across crash teardown: %d → %d", before, after)
	}
}

func TestWindowsNeverGoNegativeUnderLoad(t *testing.T) {
	// Hammer one circuit with interleaved writes from several streams
	// and verify flow-control book-keeping stays sane (no deadlock, all
	// data arrives).
	w := buildWorld(t, 1, 1, 1)
	// A generous build timeout: under -race the detector's real-time
	// overhead inflates virtual time at this small scale.
	c := newTestClient(t, w, func(cfg *ClientConfig) { cfg.BuildTimeout = 20 * time.Minute })
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	done := netem.NewChan[error](w.net.Clock(), 3)
	for i := 0; i < 3; i++ {
		w.net.Go(func() {
			conn, err := c.Dial(w.target)
			if err != nil {
				done.Send(err)
				return
			}
			defer conn.Close()
			payload := make([]byte, 200<<10)
			w.net.Go(func() { conn.Write(payload) })
			_, err = io.ReadFull(conn, make([]byte, len(payload)))
			done.Send(err)
		})
	}
	for i := 0; i < 3; i++ {
		if err, _ := done.Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDropQueuesReturnsLinkCells: a stopped world's relays keep a cell
// in the pump of every live link, which nothing runs again to return;
// DropQueues hands each back to the world's list, once.
func TestDropQueuesReturnsLinkCells(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	clock := w.net.Clock()
	clock.Shutdown()
	w.net.Acct().AbortOpenConns()
	if out := cellBufs.Out(clock); out != 3 {
		t.Fatalf("%d cells out in a stopped world of three live links, want 3", out)
	}
	for range 2 { // a second drop returns nothing twice
		for _, r := range w.relays {
			r.DropQueues()
		}
		if out := cellBufs.Out(clock); out != 0 {
			t.Fatalf("%d cells out after DropQueues, want 0", out)
		}
	}
}
