package netem

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/testkit"
)

// testNetwork builds a two-host network with a fast clock for tests.
func testNetwork(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := New(WithSeed(7))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(HostConfig{Name: "b", Location: geo.Frankfurt})
	return n, a, b
}

func TestDialRefused(t *testing.T) {
	_, a, _ := testNetwork(t)
	if _, err := a.Dial("b:80"); err == nil {
		t.Fatal("expected connection refused")
	}
	if _, err := a.Dial("nohost:80"); err == nil {
		t.Fatal("expected no such host")
	}
	if _, err := a.Dial("garbage"); err == nil {
		t.Fatal("expected bad address")
	}
}

func TestLatencyAccounting(t *testing.T) {
	n, a, b := testNetwork(t)
	l, _ := b.Listen(80)
	defer l.Close()
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		c.Read(buf)
		c.Write(buf)
	})

	start := n.Now()
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dialTime := n.Since(start)
	rtt := geo.RTT(geo.London, geo.Frankfurt)
	if dialTime < rtt {
		t.Fatalf("dial took %v virtual, want >= one RTT %v", dialTime, rtt)
	}

	start = n.Now()
	c.Write([]byte{1})
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	echo := n.Since(start)
	if echo < rtt {
		t.Fatalf("echo took %v virtual, want >= RTT %v", echo, rtt)
	}
	if echo > 40*rtt {
		t.Fatalf("echo took %v virtual, implausibly long vs RTT %v", echo, rtt)
	}
}

func TestBandwidthContention(t *testing.T) {
	// Two flows sharing one egress bucket should each see roughly half
	// the capacity (the guard-load mechanism).
	n := New(WithSeed(3))
	t.Cleanup(n.Clock().Shutdown)
	src := n.MustAddHost(HostConfig{Name: "src", Location: geo.London, UplinkBps: 2 << 20})
	dst := n.MustAddHost(HostConfig{Name: "dst", Location: geo.London})
	l, _ := dst.Listen(80)
	defer l.Close()

	const payload = 512 << 10
	recv := func() time.Duration {
		c, err := l.Accept()
		if err != nil {
			return 0
		}
		defer c.Close()
		start := n.Now()
		io.Copy(io.Discard, c)
		return n.Since(start)
	}
	wg := NewWaitGroup(n.Clock())
	durs := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		n.Go(func() {
			defer wg.Done()
			durs[i] = recv()
		})
	}
	send := func() {
		c, err := src.Dial("dst:80")
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(make([]byte, payload))
		c.Close()
	}
	sg := NewWaitGroup(n.Clock())
	for i := 0; i < 2; i++ {
		sg.Add(1)
		n.Go(func() { defer sg.Done(); send() })
	}
	sg.Wait()
	wg.Wait()

	// One 512 KiB flow alone takes 0.25 s virtual at 2 MB/s; two sharing
	// should each take close to 0.5 s.
	for i, d := range durs {
		if d < 300*time.Millisecond {
			t.Fatalf("flow %d finished in %v, too fast for contended link", i, d)
		}
	}
}

func TestUtilizationReducesRate(t *testing.T) {
	busy := NewBucket(1<<20, 0.75)
	idle := NewBucket(1<<20, 0)
	nb := busy.Reserve(0, 1<<20)
	ni := idle.Reserve(0, 1<<20)
	if nb <= ni*3 {
		t.Fatalf("75%% utilized link should be ~4x slower: busy=%v idle=%v", nb, ni)
	}
}

func TestBucketMonotonic(t *testing.T) {
	b := NewBucket(1<<20, 0)
	f := func(sizes []uint16) bool {
		var prev time.Duration
		now := time.Duration(0)
		for _, s := range sizes {
			done := b.Reserve(now, int(s))
			if done < prev || done < now {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	_, a, _ := testNetwork(t)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		p := a.ephemeral()
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestListenDuplicatePort(t *testing.T) {
	_, a, _ := testNetwork(t)
	if _, err := a.Listen(81); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen(81); err == nil {
		t.Fatal("duplicate listen should fail")
	}
}

// TestServeSpawnsWhereAnAcceptLoopWould serves a listener with
// Listener.Serve and its twin with a goroutine looping on Accept,
// against the same dials: one alone, two whose SYNs land at one instant,
// and one after Close. Every handler starts at the same instant and in
// the same order, ahead of a callback an event at its SYN's instant
// queues after the SYN; the idle Serve listener holds no goroutine, and
// Close ends its chain.
func TestServeSpawnsWhereAnAcceptLoopWould(t *testing.T) {
	run := func(event bool) []string {
		n, a, b := testNetwork(t)
		clock := n.Clock()
		ln, err := b.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, clock.Now())) }
		handle := func(c *Conn) {
			note("serve " + c.RemoteAddr().String())
			c.Close()
		}
		if event {
			ln.Serve(handle)
		} else {
			clock.Go(func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					clock.Go(func() { handle(c.(*Conn)) })
				}
			})
		}
		if got, want := clock.Registered(), map[bool]int{false: 2, true: 1}[event]; got != want {
			t.Fatalf("event=%v: %d goroutines registered with the listener idle, want %d", event, got, want)
		}
		out, _ := n.shapes(a, b)
		dial := func(name string) {
			clock.Go(func() {
				c, err := a.Dial("b:80")
				if err != nil {
					note(name + " refused")
					return
				}
				note(name + " dialed")
				c.Close()
			})
		}
		// mark runs once the dials before it have armed their SYNs.
		mark := func(name string) {
			clock.Go(func() {
				clock.EventAt(clock.Now()+out.delay, func() {
					clock.ReadyEvent(func() { note(name) })
				})
			})
		}
		dial("d1")
		mark("queued after d1's SYN")
		clock.Sleep(time.Second)
		dial("d2")
		dial("d3")
		mark("queued after d3's SYN")
		clock.Sleep(time.Second)
		if event && len(ln.queue.cond.waiters) != 1 {
			t.Fatalf("the idle Serve chain has %d waits queued, want 1", len(ln.queue.cond.waiters))
		}
		ln.Close()
		clock.Sleep(time.Second)
		dial("d4")
		clock.Sleep(time.Second)
		if len(ln.queue.cond.waiters) != 0 || clock.Registered() != 1 {
			t.Fatalf("event=%v: after Close, %d waits queued and %d goroutines registered, want 0 and 1",
				event, len(ln.queue.cond.waiters), clock.Registered())
		}
		return log
	}
	looped, served := run(false), run(true)
	if fmt.Sprint(looped) != fmt.Sprint(served) {
		t.Fatalf("accept loop:\n%v\nServe:\n%v", looped, served)
	}
	if want := "[serve a:40001@7ms queued after d1's SYN@7ms d1 dialed@14ms serve a:40002@1.007s serve a:40003@1.007s queued after d3's SYN@1.007s d2 dialed@1.014s d3 dialed@1.014s d4 refused@3s]"; fmt.Sprint(looped) != want {
		t.Fatalf("order %v, want %s", looped, want)
	}
}

// TestConnFirstWriteAllocatesNoSource: a conn's generator is eight bytes
// of state made with the conn, so its first write over a jittered link
// draws without building anything, let alone a 4.9 KB math/rand source.
// The heap count is process-wide, so the write is measured on one P with
// the collector off, and the least of five fresh conns' first writes is
// what is held to the bound: whatever else allocates meanwhile would have
// to do so during all five.
func TestConnFirstWriteAllocatesNoSource(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := New(WithSeed(3))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(HostConfig{Name: "b", Location: geo.Frankfurt})
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *Conn {
		c, err := a.Dial("b:80")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Accept(); err != nil {
			t.Fatal(err)
		}
		return c.(*Conn)
	}
	warm := dial()
	fresh := make([]*Conn, 5)
	for i := range fresh {
		fresh[i] = dial()
	}
	if fresh[0].out.jitter <= 0 {
		t.Fatal("the default wired link has no jitter: the write would draw nothing")
	}
	warm.Write([]byte("fills the segment pools"))
	least := ^uint64(0)
	for _, cc := range fresh {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cc.Write([]byte("draws jitter")); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 4096 {
		t.Fatalf("a first write allocated at least %d B; a generator is 8 B of state, not a 4.9 KB source", least)
	}
}

// TestDialAcceptCloseAllocations: a plain dial, its accept and both
// closes cost a fixed handful of objects: one block for both ends and
// both directions, the dialler's address and the SYN's event (12 while
// each end, each direction and each end's generator was an object of
// its own and the address came from fmt.Sprintf).
func TestDialAcceptCloseAllocations(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts do not hold under the race detector")
	}
	_, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c, err := a.Dial("b:80")
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		s.Close()
	})
	if allocs > 3 {
		t.Fatalf("Dial+Accept+Close allocated %v objects, want at most 3", allocs)
	}
}

// tryWriteWorld dials one conn from a wireless host, so each segment
// draws jitter and loss, and accepts its peer, which reads nothing:
// what a write leaves in the pipe stays there. Two calls build twins.
func tryWriteWorld(t *testing.T) (*Network, *Conn, *Conn) {
	n := New(WithSeed(11))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(HostConfig{Name: "a", Location: geo.London, Medium: geo.Wireless})
	b := n.MustAddHost(HostConfig{Name: "b", Location: geo.Frankfurt})
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return n, c.(*Conn), s.(*Conn)
}

// writeTrace is what writes have left on a conn: its buckets' cursors,
// the arrival of its last segment, its next draw and the network's
// counters.
func writeTrace(n *Network, c *Conn) string {
	var last time.Duration
	if tail := c.tx.segs.tail; tail != nil {
		last = tail.v.at
	}
	return fmt.Sprintf("egress %v ingress %v arrival %v draw %d %+v",
		c.out.egress.free, c.out.ingress.free, last, c.rng.Int63(), n.Acct().Snapshot())
}

// TestTryWriteAllOrNothing: a TryWrite that does not fit the receive
// window writes none of its segments, one that fits writes them all, and
// one that finds the writer lock held writes nothing.
func TestTryWriteAllOrNothing(t *testing.T) {
	n, c, s := tryWriteWorld(t)
	const room = 40_000 // three segments
	fill := pipeWindow - room
	if _, err := c.Write(make([]byte, fill)); err != nil {
		t.Fatal(err)
	}
	before := n.Acct().Snapshot()
	if ok, err := c.TryWrite(make([]byte, room+1)); ok || err != nil {
		t.Fatalf("a write one byte over the window: ok=%v err=%v, want a refusal", ok, err)
	}
	if got := n.Acct().Snapshot(); got != before || c.tx.buffered != fill {
		t.Fatalf("a refused write moved the conn: %d buffered, counters %+v, were %+v", c.tx.buffered, got, before)
	}
	c.wmu.LockEvent(nil)
	if ok, _ := c.TryWrite([]byte("x")); ok {
		t.Fatal("a write went through while another writer held the conn")
	}
	c.wmu.Unlock()

	msg := bytes.Repeat([]byte("try-write/"), room/10)
	if ok, err := c.TryWrite(msg); !ok || err != nil {
		t.Fatalf("a write that fits: ok=%v err=%v", ok, err)
	}
	got := make([]byte, fill+room)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[fill:], msg) {
		t.Fatal("the reader got other bytes than TryWrite wrote")
	}
}

// TestTryWriteRefusalLeavesNoTrace: a conn that was refused books the
// same bucket time, draws the same jitter and loss and counts the same
// as its twin that never tried.
func TestTryWriteRefusalLeavesNoTrace(t *testing.T) {
	n1, tried, _ := tryWriteWorld(t)
	n2, twin, _ := tryWriteWorld(t)
	fill := make([]byte, pipeWindow-100)
	for _, c := range []*Conn{tried, twin} {
		if _, err := c.Write(fill); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := tried.TryWrite(make([]byte, segmentSize+1)); ok {
		t.Fatal("a write over the window went through")
	}
	for _, c := range []*Conn{tried, twin} {
		if ok, err := c.TryWrite(make([]byte, 100)); !ok || err != nil {
			t.Fatalf("a write that fits: ok=%v err=%v", ok, err)
		}
	}
	if a, b := writeTrace(n1, tried), writeTrace(n2, twin); a != b {
		t.Fatalf("refused, then written: %s\nonly written:          %s", a, b)
	}
}

// TestTryWriteReportsWhatWriteReports: on a conn closed here, and on one
// whose peer has closed, TryWrite goes through and fails exactly as
// Write does, leaving the same trace.
func TestTryWriteReportsWhatWriteReports(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(c, s *Conn)
		want error
	}{
		{"closed", func(c, _ *Conn) { c.Close() }, ErrClosed},
		{"reset", func(_, s *Conn) { s.Close() }, ErrReset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n1, wc, ws := tryWriteWorld(t)
			n2, tw, ts := tryWriteWorld(t)
			tc.kill(wc, ws)
			tc.kill(tw, ts)
			msg := make([]byte, 2*segmentSize)
			if _, err := wc.Write(msg); err != tc.want {
				t.Fatalf("Write: %v, want %v", err, tc.want)
			}
			if ok, err := tw.TryWrite(msg); !ok || err != tc.want {
				t.Fatalf("TryWrite: ok=%v err=%v, want %v", ok, err, tc.want)
			}
			if a, b := writeTrace(n1, wc), writeTrace(n2, tw); a != b {
				t.Fatalf("after Write:    %s\nafter TryWrite: %s", a, b)
			}
		})
	}
}

// TestTryWriteOwnedHandsOverWhatWriteCopies: an owned write books, draws,
// lands and counts a cell exactly as Write does, and the far end's read
// sink receives the caller's own array and pool, where Write's copy comes
// from netem's. A refused one — on a full window, behind a Write parked
// holding the writer lock, or of more than one segment — keeps its buffer
// with the caller and leaves no trace.
func TestTryWriteOwnedHandsOverWhatWriteCopies(t *testing.T) {
	var cellPool sync.Pool
	type handed struct {
		base *[]byte
		pool *sync.Pool
	}
	sink := func(c *Conn, got *[]handed) {
		c.SetReadSink(func(_ []byte, base *[]byte, pool *sync.Pool, err error) {
			if err == nil {
				*got = append(*got, handed{base, pool})
			}
		})
	}

	n1, owned, ownedPeer := tryWriteWorld(t)
	n2, copied, copiedPeer := tryWriteWorld(t)
	cell := bytes.Repeat([]byte{0xC3}, 512)
	if _, err := copied.Write(cell); err != nil {
		t.Fatal(err)
	}
	if ok, err := owned.TryWriteOwned(cell, &cell, &cellPool); !ok || err != nil {
		t.Fatalf("an owned cell on an idle conn: ok=%v err=%v", ok, err)
	}
	if a, b := writeTrace(n1, owned), writeTrace(n2, copied); a != b {
		t.Fatalf("TryWriteOwned: %s\nWrite:         %s", a, b)
	}
	var ownedGot, copiedGot []handed
	sink(ownedPeer, &ownedGot)
	sink(copiedPeer, &copiedGot)
	n1.Clock().Sleep(time.Second)
	n2.Clock().Sleep(time.Second)
	if len(ownedGot) != 1 || ownedGot[0] != (handed{&cell, &cellPool}) {
		t.Fatalf("the sink got %v, want the caller's array and pool %v", ownedGot, handed{&cell, &cellPool})
	}
	if len(copiedGot) != 1 || copiedGot[0].base == &cell || copiedGot[0].pool != smallBufs.Token() {
		t.Fatalf("the sink got %v from Write, want a copy leased from netem's small class", copiedGot)
	}

	for _, tc := range []struct {
		name  string
		size  int
		setup func(n *Network, c *Conn)
	}{
		{"full window", 512, func(_ *Network, c *Conn) {
			if _, err := c.Write(make([]byte, pipeWindow-100)); err != nil {
				t.Fatal(err)
			}
		}},
		{"writer lock held", 512, func(n *Network, c *Conn) {
			if _, err := c.Write(make([]byte, pipeWindow-1000)); err != nil {
				t.Fatal(err)
			}
			n.Go(func() { c.Write(make([]byte, segmentSize)) })
			n.Clock().Sleep(time.Millisecond)
			if !c.wmu.locked || c.tx.wouldPark(512) {
				t.Fatalf("locked=%v with %d B of window: want a parked writer holding the lock, and room for a cell", c.wmu.locked, c.tx.freeSpace())
			}
		}},
		{"more than one segment", segmentSize + 1, func(*Network, *Conn) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n1, tried, _ := tryWriteWorld(t)
			n2, twin, _ := tryWriteWorld(t)
			tc.setup(n1, tried)
			tc.setup(n2, twin)
			data := make([]byte, tc.size)
			if ok, err := tried.TryWriteOwned(data, &data, &cellPool); ok || err != nil {
				t.Fatalf("ok=%v err=%v, want a refusal", ok, err)
			}
			if tried.held.base == &data {
				t.Fatal("the refused buffer is held by the conn")
			}
			for nd := tried.tx.segs.head; nd != nil; nd = nd.next {
				if nd.v.base == &data {
					t.Fatal("the refused buffer is in the pipe")
				}
			}
			if a, b := writeTrace(n1, tried), writeTrace(n2, twin); a != b {
				t.Fatalf("refused: %s\nuntried: %s", a, b)
			}
		})
	}
}
