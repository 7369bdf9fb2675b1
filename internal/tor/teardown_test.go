package tor

import (
	"encoding/binary"
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

// TestLinkTeardownWithFullWindows ends a relay's link while the circuits
// it carries cannot write. A raw client builds six circuits through the
// relay cell by cell, each extended to a raw next hop that answers
// CREATE and then reads nothing until told to, and fills five of the
// circuits' downstream conns with cells the relay cannot parse and so
// forwards. Then, in turn:
//   - the client's DESTROY for one of them waits in the link's pump
//     (destroying) until the next hop reads;
//   - the next hop fills the client's window with backward cells on the
//     sixth circuit and hangs up, and the relay's DESTROY upstream waits
//     until the client reads;
//   - the client hangs up, and the teardown destroys the four circuits
//     left in circuit-ID order, each DESTROY downstream waiting for its
//     conn to drain.
//
// The order the teardown's DESTROYs go out is pinned (the four IDs are
// built out of order, so map order would show), and every cell lease is
// back once the world closes.
func TestLinkTeardownWithFullWindows(t *testing.T) {
	n := netem.New(netem.WithSeed(3))
	clock := n.Clock()
	t.Cleanup(clock.Shutdown)
	host := func(name string) *netem.Host {
		return n.MustAddHost(netem.HostConfig{Name: name, Location: geo.Frankfurt, UplinkBps: 50 << 20, DownlinkBps: 50 << 20})
	}
	relay, err := StartRelay(RelayConfig{Name: "relay", Host: host("relay"), Unpublished: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := host("next")
	ln, err := next.Listen(DefaultORPort)
	if err != nil {
		t.Fatal(err)
	}
	var hops []*netem.Conn // in the order the circuits were extended
	n.Go(func() {
		for {
			s, err := ln.Accept()
			if err != nil {
				return
			}
			c := s.(*netem.Conn)
			cell := make([]byte, CellSize)
			if _, err := c.ReadFull(cell); err != nil {
				return
			}
			cell[4] = byte(CmdCreated)
			c.Write(cell)
			hops = append(hops, c)
		}
	})
	s, err := host("client").Dial(relay.Descriptor().Addr)
	if err != nil {
		t.Fatal(err)
	}
	up := s.(*netem.Conn)
	send := func(id uint32, cmd Command, payload []byte) {
		cell := Cell{CircID: id, Cmd: cmd}
		copy(cell.Payload[:], payload)
		if _, err := up.Write(cell.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() Cell {
		var cell Cell
		buf := make([]byte, CellSize)
		if _, err := up.ReadFull(buf); err != nil {
			t.Fatal(err)
		}
		cell.Decode(buf)
		return cell
	}

	// Four circuits for the teardown, one for the client's DESTROY and
	// one for the next hop's hang-up.
	ids := []uint32{9, 3, 7, 5, 11, 13}
	hopOf := make(map[uint32]*netem.Conn)
	addr := ln.Addr().String()
	for i, id := range ids {
		hs := handshake{byte(id)}
		send(id, CmdCreate, hs[:])
		created := recv()
		hc, err := hs.complete(created.Payload[:HandshakeLen])
		if created.Cmd != CmdCreated || err != nil {
			t.Fatalf("circuit %d: %v answered CREATE (%v)", id, created.Cmd, err)
		}
		var p [PayloadSize]byte
		extend := append(append([]byte{byte(len(addr))}, addr...), make([]byte, HandshakeLen)...)
		marshalRelayInto(p[:], &RelayCell{Cmd: RelayExtend, Data: extend})
		hc.sealForward(p[:])
		send(id, CmdRelay, p[:])
		extended := recv()
		rc, ok := parseRelayView(extended.Payload[:])
		if !ok || !hc.checkBackward(extended.Payload[:]) || rc.Cmd != RelayExtended {
			t.Fatalf("circuit %d: no EXTENDED: %v", id, rc.Cmd)
		}
		hopOf[id] = hops[i]
	}
	l := relay.links[0]

	// A relay cell whose length no cell can hold is not this hop's, so
	// the relay forwards it as it came. netem's receive window holds
	// exactly window cells.
	filler := make([]byte, PayloadSize)
	binary.BigEndian.PutUint16(filler[9:11], 0xffff)
	const window = (256 << 10) / CellSize
	for _, id := range ids[:5] {
		for range window {
			send(id, CmdRelay, filler)
		}
	}
	clock.Sleep(time.Second)
	for _, id := range ids[:5] {
		if b := l.circs[id].next.WriteBudget(); b >= CellSize {
			t.Fatalf("circuit %d: %d bytes of window left downstream, want room for no cell", id, b)
		}
	}

	destroyed := netem.NewChan[uint32](clock, len(ids))
	drain := func(id uint32) {
		n.Go(func() {
			buf := make([]byte, CellSize)
			for {
				if _, err := hopOf[id].ReadFull(buf); err != nil {
					return
				}
				if Command(buf[4]) == CmdDestroy {
					destroyed.Send(id)
				}
			}
		})
	}

	// The client's DESTROY waits in the pump.
	send(11, CmdDestroy, nil)
	clock.Sleep(time.Second)
	if l.at != destroying {
		t.Fatalf("pump at step %d after a DESTROY into a full window, want destroying", l.at)
	}
	drain(11)
	if id, _ := destroyed.Recv(); id != 11 {
		t.Fatalf("DESTROY reached the next hop on circuit %d, want 11", id)
	}
	clock.Sleep(time.Second)
	if l.at != reading || l.circs[11] != nil {
		t.Fatalf("after the DESTROY went out: pump at step %d, circuit 11 live %v", l.at, l.circs[11] != nil)
	}

	// The next hop fills the client's window and hangs up on circuit 13:
	// its DESTROY upstream waits until the client reads.
	n.Go(func() {
		cell := (&Cell{Cmd: CmdRelay}).Encode(nil)
		for range window + 8 {
			hopOf[13].Write(cell)
		}
	})
	clock.Sleep(time.Second)
	if b := l.fast.WriteBudget(); b >= CellSize {
		t.Fatalf("%d bytes of the client's window left, want room for no cell", b)
	}
	hopOf[13].Close()
	clock.Sleep(time.Second)
	if c := l.circs[13]; c == nil || !c.destroyUp {
		t.Fatal("circuit 13's DESTROY upstream is not waiting on the client's full window")
	}
	for {
		if cell := recv(); cell.Cmd == CmdDestroy {
			if cell.CircID != 13 {
				t.Fatalf("DESTROY for circuit %d, want 13", cell.CircID)
			}
			break
		}
	}
	clock.Sleep(time.Second)
	if l.circs[13] != nil {
		t.Fatal("circuit 13 outlived its DESTROY")
	}

	// The client hangs up: the teardown's first DESTROY waits.
	up.Close()
	clock.Sleep(time.Second)
	if l.at != tearingDown {
		t.Fatalf("pump at step %d after the link ended, want tearingDown", l.at)
	}
	// The next hop reads one conn at a time, in ID order: each DESTROY
	// goes out once its conn has room, and the next waits for its own.
	for _, id := range []uint32{3, 5, 7, 9} {
		drain(id)
		clock.Sleep(time.Second)
		if k := destroyed.Len(); k != 1 {
			t.Fatalf("once circuit %d's conn drained, %d DESTROYs went out, want its own alone", id, k)
		}
		if got, _ := destroyed.Recv(); got != id {
			t.Fatalf("once circuit %d's conn drained, DESTROY went out on circuit %d", id, got)
		}
	}
	clock.Sleep(time.Second)
	if l.at != ended {
		t.Fatalf("pump at step %d after the teardown, want ended", l.at)
	}

	clock.Shutdown()
	n.Acct().AbortOpenConns()
	relay.DropQueues()
	if out := cellBufs.Out(clock); out != 0 {
		t.Fatalf("%d cell leases out after the world closed, want 0", out)
	}
}
