package tor

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/testkit"
)

func TestEWMADecayHalflife(t *testing.T) {
	q := &circQueue{ewma: 8, ewmaAt: 0}
	q.decayTo(30*time.Second, 30*time.Second)
	if math.Abs(q.ewma-4) > 1e-9 {
		t.Fatalf("one half-life should halve the count: got %v", q.ewma)
	}
	q.decayTo(90*time.Second, 30*time.Second)
	if math.Abs(q.ewma-1) > 1e-9 {
		t.Fatalf("two more half-lives: got %v, want 1", q.ewma)
	}
	// Decay must be idempotent at a fixed instant (pick ages both
	// comparands repeatedly within one pass).
	before := q.ewma
	q.decayTo(90*time.Second, 30*time.Second)
	if q.ewma != before {
		t.Fatalf("re-decay at the same instant changed the count: %v -> %v", before, q.ewma)
	}
}

func TestUniqueIDRetriesOnCollision(t *testing.T) {
	// The generator yields 4, 5, 6 → forced odd: 5, 5, 7. With 5 in
	// use, the draw must skip both collisions and land on 7.
	seq := []uint32{4, 5, 6}
	i := 0
	next := func() uint32 { v := seq[i]; i++; return v }
	used := func(id uint32) bool { return id == 5 }
	if got := uniqueID(next, used); got != 7 {
		t.Fatalf("uniqueID = %d, want 7 (skipping the in-use 5)", got)
	}
	if got := uniqueID(func() uint32 { return 8 }, func(uint32) bool { return false }); got != 9 {
		t.Fatalf("uniqueID must force the low bit: got %d, want 9", got)
	}
}

// TestDuplicateCreateRejected drives the raw OR protocol: a CREATE
// reusing a live circuit ID must be refused with a DESTROY, leaving the
// original circuit wired.
func TestDuplicateCreateRejected(t *testing.T) {
	n := netem.New(netem.WithSeed(3))
	t.Cleanup(n.Clock().Shutdown)
	relayHost := n.MustAddHost(netem.HostConfig{Name: "relay-0", Location: geo.Frankfurt})
	if _, err := StartRelay(RelayConfig{Name: "relay-0", Host: relayHost, Unpublished: true, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	clientHost := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	conn, err := clientHost.Dial("relay-0:9001")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(id uint32, seed int64) {
		hs := newHandshake(rand.New(rand.NewSource(seed)))
		create := &Cell{CircID: id, Cmd: CmdCreate}
		copy(create.Payload[:], hs[:])
		if _, err := conn.Write(create.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	var reply Cell
	read := func() error {
		buf := make([]byte, CellSize)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return err
		}
		return reply.Decode(buf)
	}
	send(9, 1)
	if err := read(); err != nil || reply.Cmd != CmdCreated || reply.CircID != 9 {
		t.Fatalf("first CREATE: got %v/%d, %v; want CREATED/9", reply.Cmd, reply.CircID, err)
	}
	send(9, 2)
	if err := read(); err != nil || reply.Cmd != CmdDestroy || reply.CircID != 9 {
		t.Fatalf("duplicate CREATE: got %v/%d, %v; want DESTROY/9", reply.Cmd, reply.CircID, err)
	}
	// A fresh ID on the same link must still work.
	send(11, 3)
	if err := read(); err != nil || reply.Cmd != CmdCreated || reply.CircID != 11 {
		t.Fatalf("post-duplicate CREATE: got %v/%d, %v; want CREATED/11", reply.Cmd, reply.CircID, err)
	}
}

// contendedDelays runs one bulk and one bursty client through the same
// scheduling-constrained guard and returns the guard's per-circuit
// records (bursty first) plus the network accounting at drain.
func contendedDelays(t *testing.T, policy SchedPolicy) (bursty, bulk CircuitSched, acct netem.AcctSnapshot) {
	t.Helper()
	n := netem.New(netem.WithSeed(7))
	t.Cleanup(n.Clock().Shutdown)
	clock := n.Clock()
	mk := func(name string, bps float64) *netem.Host {
		return n.MustAddHost(netem.HostConfig{Name: name, Location: geo.Frankfurt, UplinkBps: bps, DownlinkBps: bps})
	}
	dir := NewDirectory()
	relay := func(name string, host *netem.Host, flags Flag, bandwidth float64, sched SchedPolicy) *Relay {
		r, err := StartRelay(RelayConfig{Name: name, Host: host, Directory: dir, Flags: flags, Bandwidth: bandwidth, Seed: int64(len(name)), SchedPolicy: sched})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// The guard's scheduler is the bottleneck: it advertises 100 KB/s,
	// whose passes flush the floor of 4 cells per 10ms (~205 KB/s),
	// against fast links everywhere else, so the bulk circuit's window
	// piles up in the guard's queue, not in pipes.
	guard := relay("guard-0", mk("guard-0", 8<<20), FlagGuard|FlagFast, 100<<10, policy)
	relay("middle-0", mk("middle-0", 50<<20), FlagFast, 0, SchedEWMA)
	relay("exit-0", mk("exit-0", 50<<20), FlagExit|FlagFast, 0, SchedEWMA)

	web := mk("web", 50<<20)
	bulkLn, err := web.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		for {
			c, err := bulkLn.Accept()
			if err != nil {
				return
			}
			conn := c
			n.Go(func() {
				// Stream until the circuit dies: contention must outlast
				// every bursty ping, whichever policy is running.
				chunk := make([]byte, 32<<10)
				for {
					if _, err := conn.Write(chunk); err != nil {
						conn.Close()
						return
					}
				}
			})
		}
	})
	pingLn, err := web.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		for {
			c, err := pingLn.Accept()
			if err != nil {
				return
			}
			conn := c
			n.Go(func() {
				buf := make([]byte, 1)
				if _, err := io.ReadFull(conn, buf); err == nil {
					conn.Write(buf)
				}
				conn.Close()
			})
		}
	})

	g, _ := dir.Lookup("guard-0")
	m, _ := dir.Lookup("middle-0")
	e, _ := dir.Lookup("exit-0")
	client := func(name string, seed int64) *Client {
		c, err := NewClient(ClientConfig{
			Host: mk(name, 50<<20), Directory: dir,
			Guard: g, Middle: m, Exit: e, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bulkC, burstyC := client("bulk-client", 1), client("bursty-client", 2)

	done := netem.NewChan[error](clock, 1)
	n.Go(func() {
		conn, err := bulkC.Dial("web:80")
		if err != nil {
			return
		}
		// Drains until the driver tears the circuit down at test end.
		io.Copy(io.Discard, conn)
		conn.Close()
	})
	n.Go(func() {
		// Let the bulk circuit ramp its backlog before sampling, then
		// ping through sustained contention.
		clock.Sleep(time.Second)
		for i := 0; i < 12; i++ {
			clock.Sleep(200 * time.Millisecond)
			conn, err := burstyC.Dial("web:81")
			if err != nil {
				done.Send(err)
				return
			}
			conn.Write([]byte{1})
			if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
				conn.Close()
				done.Send(err)
				return
			}
			conn.Close()
		}
		done.Send(nil)
	})
	if err, _ := done.Recv(); err != nil {
		t.Fatal(err)
	}
	bulkC.NewCircuit()
	burstyC.NewCircuit()
	bulkLn.Close()
	pingLn.Close()
	clock.Sleep(10 * time.Second) // drain: teardowns observe their closes

	scheds := guard.CircuitScheds()
	if len(scheds) != 2 {
		t.Fatalf("guard saw %d circuits, want 2", len(scheds))
	}
	bursty, bulk = scheds[0], scheds[1]
	if bulk.Flushed < bursty.Flushed {
		bursty, bulk = bulk, bursty
	}
	return bursty, bulk, n.Acct().Snapshot()
}

func delayMedian(cs CircuitSched) float64 { return cs.Delays.Median().Seconds() }

// CircuitSched is one circuit's scheduler record.
type CircuitSched struct {
	// CircID is the circuit's ID on its upstream link.
	CircID uint32
	// Queued / Flushed / Dropped are the circuit's cell counts.
	Queued, Flushed, Dropped int64
	// Pending counts cells still in the queue.
	Pending int64
	// DelaySum accumulates flushed cells' queueing delays.
	DelaySum time.Duration
	// Delays is the distribution of flushed cells' queueing delays.
	Delays DelayHist
}

// Median estimates the median delay: the bucket holding the middle
// sample, interpolated linearly by that sample's rank inside it. It is
// 0 for an empty histogram.
func (h *DelayHist) Median() time.Duration {
	var total int64
	for _, n := range h {
		total += n
	}
	rank := total / 2
	for b, n := range h {
		if n == 0 || rank >= n {
			rank -= n
			continue
		}
		if b == 0 {
			return 0
		}
		lo := float64(uint64(1) << (b - 1))
		return time.Duration(lo + lo*(float64(rank)+0.5)/float64(n))
	}
	return 0
}

// CircuitScheds returns per-circuit scheduler records: retired
// circuits first (in teardown order), then live ones (in creation
// order). The order is deterministic but does not identify circuits —
// consumers match records by their counters (the contention fairness
// tests split bursty from bulk by Flushed).
func (r *Relay) CircuitScheds() []CircuitSched {
	var out []CircuitSched
	for _, s := range r.schedulers() {
		for _, qs := range [][]*circQueue{s.done, s.active} {
			for _, q := range qs {
				out = append(out, CircuitSched{
					CircID:   q.id,
					Queued:   q.queued,
					Flushed:  q.flushed,
					Dropped:  q.dropped,
					Pending:  int64(q.cells.Len()),
					DelaySum: q.delaySum,
					Delays:   q.delays,
				})
			}
		}
	}
	return out
}

// TestSchedulerFairnessEWMA pins the tentpole property: under guard
// contention the EWMA scheduler keeps the bursty circuit's queueing
// delay well below the bulk circuit's, and well below what the FIFO
// baseline inflicts on the same workload. It also audits per-circuit
// and network-wide cell conservation at drain.
func TestSchedulerFairnessEWMA(t *testing.T) {
	burstyE, bulkE, acctE := contendedDelays(t, SchedEWMA)
	burstyF, _, acctF := contendedDelays(t, SchedFIFO)

	for _, tc := range []struct {
		name string
		cs   CircuitSched
	}{{"ewma-bursty", burstyE}, {"ewma-bulk", bulkE}, {"fifo-bursty", burstyF}} {
		if tc.cs.Pending != 0 {
			t.Errorf("%s: %d cells still pending at drain", tc.name, tc.cs.Pending)
		}
		if tc.cs.Queued != tc.cs.Flushed+tc.cs.Dropped {
			t.Errorf("%s: cell conservation violated: queued=%d flushed=%d dropped=%d",
				tc.name, tc.cs.Queued, tc.cs.Flushed, tc.cs.Dropped)
		}
	}
	for name, acct := range map[string]netem.AcctSnapshot{"ewma": acctE, "fifo": acctF} {
		if err := acct.CellConservationErr(); err != nil {
			t.Errorf("%s world: %v", name, err)
		}
		if acct.CellsQueued == 0 {
			t.Errorf("%s world moved no cells through the scheduler", name)
		}
	}

	mBurstyE, mBulkE, mBurstyF := delayMedian(burstyE), delayMedian(bulkE), delayMedian(burstyF)
	t.Logf("median queueing delay: ewma bursty=%.4fs bulk=%.4fs; fifo bursty=%.4fs", mBurstyE, mBulkE, mBurstyF)
	if mBurstyE >= mBulkE {
		t.Errorf("EWMA fairness: bursty median %.4fs should undercut bulk median %.4fs", mBurstyE, mBulkE)
	}
	if mBurstyE >= mBurstyF/2 {
		t.Errorf("EWMA vs FIFO: bursty median %.4fs should be well below the FIFO baseline %.4fs", mBurstyE, mBurstyF)
	}
}

// TestSchedulerTransparentWhenUncontended checks that a single circuit
// with an ample budget suffers no material queueing: the scheduler must
// not tax the uncontended paper experiments.
func TestSchedulerTransparentWhenUncontended(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	conn, err := c.Dial(w.target)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64<<10)
	errc := netem.NewChan[error](w.net.Clock(), 1)
	w.net.Go(func() {
		_, err := conn.Write(msg)
		errc.Send(err)
	})
	if _, err := io.ReadFull(conn, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	if err, _ := errc.Recv(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	c.NewCircuit()
	w.net.Clock().Sleep(5 * time.Second)

	for _, r := range w.relays {
		st := r.SchedStats()
		if st.Pending != 0 || st.Queued != st.Flushed+st.Dropped {
			t.Errorf("%s: cells unaccounted at drain: %+v", r.Descriptor().Name, st)
		}
		if st.Flushed > 0 && st.MeanDelay() > 20*time.Millisecond {
			t.Errorf("%s: uncontended mean queueing delay %v too high", r.Descriptor().Name, st.MeanDelay())
		}
	}
}

// discardConn is a link conn without the inline write path: the
// scheduler hands its cells to a flusher, which writes here with the
// event form every PT conn has. Nothing reads it.
type discardConn struct{ netem.Stream }

func (discardConn) WriteEvent(p []byte, _ func()) (int, error, bool) { return len(p), nil, true }

// TestCircQueueKeepsItsArray feeds a circuit queue that a one-cell-a-pass
// scheduler drains one cell behind, as a loaded guard's is: never empty,
// so only nodes going back to the scheduler's list keep it from drawing
// one for every cell that ever passed.
func TestCircQueueKeepsItsArray(t *testing.T) {
	clock := netem.NewClock()
	t.Cleanup(clock.Shutdown)
	s := newCellScheduler(clock, new(netem.Acct), SchedEWMA, 1<<20)
	s.perPass = 1
	defer s.stop()
	q := s.newQueue(&link{relay: &Relay{clock: clock}, conn: discardConn{}, wmu: netem.NewMutex(clock)}, 1)
	enqueue := func() {
		buf, base := getCellBuf(clock)
		if err := s.enqueueWire(q, buf, base); err != nil {
			t.Fatal(err)
		}
	}
	enqueue()
	for i := 0; i < 100_000; i++ {
		enqueue()
		clock.Sleep(schedInterval) // one pass: one cell out
	}
	if q.flushed < 100_000 || q.cells.Len() > 2 {
		t.Fatalf("flushed %d cells, %d still queued: the queue was not drained one behind", q.flushed, q.cells.Len())
	}
	if c := s.nodes.Slabs(); c > 1 {
		t.Fatalf("cell list made %d slabs, more than one, while the queue held at most 3", c)
	}
}

// TestCircQueueCycleAllocationFree: once warm, cells enqueued on a
// circuit and flushed by a pass allocate nothing: the nodes come from
// the scheduler's list and the buffers from the world's. A cycle queues
// two slabs' worth, so a node that never came back shows as
// allocations.
func TestCircQueueCycleAllocationFree(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts do not hold under the race detector")
	}
	clock := netem.NewClock()
	t.Cleanup(clock.Shutdown)
	s := newCellScheduler(clock, new(netem.Acct), SchedEWMA, 16<<20) // 328 cells a pass
	defer s.stop()
	q := s.newQueue(&link{relay: &Relay{clock: clock}, conn: discardConn{}, wmu: netem.NewMutex(clock)}, 1)
	cycle := func() {
		for i := 0; i < 64; i++ {
			buf, base := getCellBuf(clock)
			if err := s.enqueueWire(q, buf, base); err != nil {
				t.Fatal(err)
			}
		}
		clock.Sleep(schedInterval) // one pass flushes them all
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a warm enqueue and flush allocated %v objects, want 0", allocs)
	}
	if q.flushed != 202*64 || q.cells.Len() != 0 {
		t.Fatalf("flushed %d cells with %d queued, want %d and none", q.flushed, q.cells.Len(), 202*64)
	}
}

// TestRefusedLinkSkippedForRestOfPass: a link that refuses a write
// mid-pass gets no second try in that pass, while another link's
// circuit takes the pass's budget; the next pass probes it afresh. The
// refusal is a cell too large for one segment, which TryWriteOwned
// turns down as it would a write lock held by a parked writer.
func TestRefusedLinkSkippedForRestOfPass(t *testing.T) {
	n := netem.New(netem.WithSeed(1))
	t.Cleanup(n.Clock().Shutdown)
	clock := n.Clock()
	far := n.MustAddHost(netem.HostConfig{Name: "far", Location: geo.Frankfurt})
	ln, err := far.Listen(9001)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Go(func() {
		if c, err := ln.Accept(); err == nil {
			defer c.Close()
			io.Copy(io.Discard, c)
		}
	})
	near := n.MustAddHost(netem.HostConfig{Name: "near", Location: geo.Frankfurt})
	conn, err := near.Dial("far:9001")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	s := newCellScheduler(clock, new(netem.Acct), SchedEWMA, 100<<10) // 4 cells a pass
	defer s.stop()
	fast := conn.(*netem.Conn)
	refusing := &link{conn: fast, fast: fast, wmu: netem.NewMutex(clock)}
	other := &link{relay: &Relay{clock: clock}, conn: discardConn{}, wmu: netem.NewMutex(clock)}
	qr, qo := s.newQueue(refusing, 1), s.newQueue(other, 3)
	oversize := make([]byte, 32<<10)
	// Enqueued first, so both policies pick it first.
	if err := s.enqueueWire(qr, oversize, &oversize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		buf, base := getCellBuf(clock)
		if err := s.enqueueWire(qo, buf, base); err != nil {
			t.Fatal(err)
		}
	}

	clock.Sleep(schedInterval / 2) // the first pass, at once
	if s.passes != 1 || qo.flushed != 4 || qr.flushed != 0 {
		t.Fatalf("after pass 1: passes=%d, other link flushed %d (want 4), refusing link %d (want 0)", s.passes, qo.flushed, qr.flushed)
	}
	if refusing.pass != 1 || refusing.passBudget != 0 {
		t.Fatalf("refusing link stamped pass %d with budget %d, want pass 1 with 0", refusing.pass, refusing.passBudget)
	}

	// Make the head cell writable: the next pass must try the link again.
	buf, base := getCellBuf(clock)
	qr.cells.Front().buf, qr.cells.Front().base = buf, base
	clock.Sleep(schedInterval)
	if s.passes != 2 || qr.flushed != 1 || qo.flushed != 6 {
		t.Fatalf("after pass 2: passes=%d, refusing link flushed %d (want 1), other %d (want 6)", s.passes, qr.flushed, qo.flushed)
	}
}
