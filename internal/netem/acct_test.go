package netem

import (
	"io"
	"testing"
	"time"
)

// TestAcctByteConservation drives a transfer (including an aborted one,
// which drops buffered bytes) and checks the conservation equation the
// simulation-torture suite audits every fuzzed world with.
func TestAcctByteConservation(t *testing.T) {
	n := New(WithSeed(3))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(HostConfig{Name: "a"})
	b := n.MustAddHost(HostConfig{Name: "b"})
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}

	const msg = 64 << 10
	n.Go(func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			n.Go(func() {
				// First conn: echo everything. Later conns: read a
				// little, then abort mid-stream to strand buffered
				// bytes on both pipes; a write to the aborted peer fails.
				buf := make([]byte, 4096)
				nr, _ := c.Read(buf)
				c.Write(buf[:nr])
				if _, err := io.ReadFull(c, make([]byte, msg-nr)); err == nil {
					c.Close()
				} else if _, err := c.Write(buf); err == nil {
					t.Error("a write to an aborted peer succeeded")
				}
			})
		}
	})

	// A clean round trip.
	c1, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, msg)
	if _, err := c1.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c1, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// An aborted transfer: bytes in flight when the dialer aborts must
	// show up as dropped, not vanish.
	c2, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	c2.Write(payload)
	c2.(*Conn).Abort()

	// Quiesce: let the acceptor goroutines observe the close.
	n.Clock().Sleep(5e9)
	l.Close()
	n.Clock().Sleep(1e9)

	s := n.Acct().Snapshot()
	if err := s.ConservationErr(); err != nil {
		t.Fatalf("conservation: %v (snapshot %+v)", err, s)
	}
	if s.Dials != 2 || s.DialsRefused != 0 {
		t.Errorf("dials = %d (refused %d), want 2 (0)", s.Dials, s.DialsRefused)
	}
	if s.ConnsOpened != 4 {
		t.Errorf("conns opened = %d, want 4 endpoints", s.ConnsOpened)
	}
	if s.BytesSent == 0 || s.BytesDelivered == 0 {
		t.Errorf("no bytes accounted: %+v", s)
	}
	if s.BytesDropped == 0 {
		t.Errorf("aborted transfer should strand dropped bytes: %+v", s)
	}
}

// TestAcctSegmentsFiltered checks that the policy-consultation counter
// bounds every per-segment censor counter: it only moves when a policy
// is installed.
func TestAcctSegmentsFiltered(t *testing.T) {
	n := New(WithSeed(4))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(HostConfig{Name: "a"})
	b := n.MustAddHost(HostConfig{Name: "b"})
	l, _ := b.Listen(80)
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	c.Write(make([]byte, 1024))
	if got := n.Acct().Snapshot().SegmentsFiltered; got != 0 {
		t.Errorf("segments filtered without a policy: %d", got)
	}
	n.SetPolicy(passPolicy{})
	c.Write(make([]byte, 1024))
	if got := n.Acct().Snapshot().SegmentsFiltered; got != 1 {
		t.Errorf("segments filtered = %d, want 1", got)
	}
	c.Close()
}

// TestWriteBudget checks the writable-budget probe: a fresh conn offers
// the full receive window, a backlogged one shrinks toward zero, reads
// reopen it, and a closed conn reports zero.
func TestWriteBudget(t *testing.T) {
	n := New(WithSeed(5))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(HostConfig{Name: "a"})
	b := n.MustAddHost(HostConfig{Name: "b"})
	l, _ := b.Listen(80)
	accepted := NewChan[*Conn](n.Clock(), 1)
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted.Send(c.(*Conn))
	})
	cn, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	c := cn.(*Conn)
	full := c.WriteBudget()
	if full <= 0 {
		t.Fatalf("fresh conn budget = %d, want > 0", full)
	}

	// Fill the pipe without reading: the budget must shrink by exactly
	// the buffered bytes.
	const chunk = 48 << 10
	if _, err := c.Write(make([]byte, chunk)); err != nil {
		t.Fatal(err)
	}
	if got := c.WriteBudget(); got != full-chunk {
		t.Fatalf("budget after %d buffered = %d, want %d", chunk, got, full-chunk)
	}

	// A write within the probed budget must not park: it returns with
	// virtual time unchanged (pacing is carried by arrival times, not by
	// parking the writer).
	before := n.Clock().Now()
	if _, err := c.Write(make([]byte, full-chunk)); err != nil {
		t.Fatal(err)
	}
	if now := n.Clock().Now(); now != before {
		t.Fatalf("write within budget parked: %v -> %v", before, now)
	}
	if got := c.WriteBudget(); got != 0 {
		t.Fatalf("budget at full window = %d, want 0", got)
	}

	// Draining the peer reopens the budget.
	srv, _ := accepted.Recv()
	if _, err := io.ReadFull(srv, make([]byte, full)); err != nil {
		t.Fatal(err)
	}
	if got := c.WriteBudget(); got != full {
		t.Fatalf("budget after drain = %d, want %d", got, full)
	}

	c.Close()
	if got := c.WriteBudget(); got != 0 {
		t.Fatalf("closed conn budget = %d, want 0", got)
	}
	srv.Close()
	l.Close()
}

// TestCellConservation exercises the relay-cell counters' audit: the
// equation holds only when every queued cell was flushed or dropped.
func TestCellConservation(t *testing.T) {
	var a Acct
	a.AddCellsQueued(5)
	a.AddCellsFlushed(3)
	if err := a.Snapshot().CellConservationErr(); err == nil {
		t.Fatal("2 cells in flight must violate drained-point conservation")
	}
	a.AddCellsDropped(2)
	if err := a.Snapshot().CellConservationErr(); err != nil {
		t.Fatalf("balanced counters rejected: %v", err)
	}
}

type passPolicy struct{}

func (passPolicy) FilterDial(src, dst string) error    { return nil }
func (passPolicy) ConnOpened(*Conn)                    {}
func (passPolicy) FilterSegment(f Flow, n int) Verdict { return Verdict{} }

// TestAcctSnapshotSub pins the delta helper's contract: forward deltas
// are exact with zero regressions, swapped snapshots clamp every
// regressed counter to zero and count each one, and the BytesBuffered
// gauge passes through unclamped and uncounted.
func TestAcctSnapshotSub(t *testing.T) {
	prev := AcctSnapshot{Dials: 2, BytesSent: 100, BytesDelivered: 90, BytesBuffered: 7, CellsQueued: 5}
	cur := AcctSnapshot{Dials: 5, BytesSent: 250, BytesDelivered: 240, BytesBuffered: 3, CellsQueued: 9}

	d, reg := cur.Sub(prev)
	if reg != 0 {
		t.Fatalf("forward Sub counted %d regressions, want 0", reg)
	}
	want := AcctSnapshot{Dials: 3, BytesSent: 150, BytesDelivered: 150, BytesBuffered: 3, CellsQueued: 4}
	if d != want {
		t.Fatalf("forward Sub = %+v, want %+v", d, want)
	}

	// Swapped: the four advanced counters regress and clamp; the gauge
	// (which legitimately moved 3→7 backwards in time) never counts.
	d, reg = prev.Sub(cur)
	if reg != 4 {
		t.Fatalf("swapped Sub counted %d regressions, want 4", reg)
	}
	if d.Dials != 0 || d.BytesSent != 0 || d.BytesDelivered != 0 || d.CellsQueued != 0 {
		t.Fatalf("swapped Sub left a negative-able counter unclamped: %+v", d)
	}
	if d.BytesBuffered != 7 {
		t.Fatalf("swapped Sub gauge = %d, want prev's value 7", d.BytesBuffered)
	}

	// Add is Sub's inverse over a series of interval snapshots.
	sum := prev.Add(want)
	if sum.Dials != cur.Dials || sum.BytesSent != cur.BytesSent || sum.BytesBuffered != cur.BytesBuffered {
		t.Fatalf("prev.Add(delta) = %+v, want cur %+v", sum, cur)
	}
}

// TestAcctSubConcurrentMonotone hammers an Acct from several simulation
// goroutines while the world's driver takes successive snapshots and
// subtracts them: with every counter monotone, no pair of ordered
// snapshots may ever produce a clamped (regressed) field — the
// guarantee the per-interval metric timelines rely on. The counters are
// plain integers, so writers and reader share the world's run token, as
// the obs sampler's clock events do; a reader outside the world would
// be a data race.
func TestAcctSubConcurrentMonotone(t *testing.T) {
	var a Acct
	c := NewClock()
	defer c.Shutdown()
	stop := false
	writers := NewWaitGroup(c)
	for g := 0; g < 4; g++ {
		writers.Add(1)
		c.Go(func() {
			defer writers.Done()
			for !stop {
				a.addDial(false)
				a.addSent(64)
				a.addDelivered(64)
				a.AddCellsQueued(2)
				a.AddCellsFlushed(1)
				a.AddCellsDropped(1)
				c.Sleep(time.Duration(g+1) * time.Microsecond)
			}
		})
	}

	prev := a.Snapshot()
	var total AcctSnapshot
	for i := 0; i < 200; i++ {
		c.Sleep(3 * time.Microsecond)
		cur := a.Snapshot()
		d, reg := cur.Sub(prev)
		if reg != 0 {
			t.Fatalf("snapshot %d: Sub of ordered snapshots regressed %d fields (prev=%+v cur=%+v)", i, reg, prev, cur)
		}
		total = total.Add(d)
		prev = cur
	}
	stop = true
	writers.Wait()
	cur := a.Snapshot()
	d, _ := cur.Sub(prev)
	total = total.Add(d)
	// The interval sum reconstructs the last cumulative snapshot.
	if cur.Dials < 200 || total.BytesSent != cur.BytesSent || total.CellsQueued != cur.CellsQueued || total.Dials != cur.Dials {
		t.Fatalf("interval sum %+v does not reconstruct final snapshot %+v", total, cur)
	}
}
