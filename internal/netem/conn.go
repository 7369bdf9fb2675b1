package netem

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"ptperf/internal/sim"
)

// segmentSize is the shaping granularity. Large enough that a segment's
// transmission time on a typical link exceeds the scheduler's sleep
// resolution, small enough to pipeline multi-hop transfers.
const segmentSize = 16 << 10

// Addr is a virtual network address ("host:port" on network "vnet").
type Addr struct{ host string }

// Network returns the virtual network name.
func (Addr) Network() string { return "vnet" }

func (a Addr) String() string { return a.host }

// shape holds the per-direction shaping parameters of a conn.
type shape struct {
	egress  *Bucket       // sender host egress
	ingress *Bucket       // receiver host ingress
	delay   time.Duration // one-way propagation delay
	jitter  time.Duration // max uniform extra per segment
	loss    float64       // per-segment loss-event probability
	lossPen time.Duration // penalty charged per loss event (≈RTO)
}

// Conn is a shaped virtual connection implementing Stream.
type Conn struct {
	netDeadlines
	net           *Network
	local, remote Addr
	tx, rx        *pipe
	out           shape
	memo          FlowMemo // the policy's constant of this direction

	src sim.Source // rng's stream, held inline
	rng rand.Rand  // jitter and loss draws

	wmu Mutex // serializes writers, who park on backpressure
	// A write keeps the segment it shaped for a full window in held
	// until the window takes it, marked by holding. An event write
	// (WriteEvent) holds wmu across its waits, marked by wlocked.
	held seg

	rdl time.Duration // the instant reads time out, noDeadline for none

	// closed is set by Close and Abort alike and counts the flow's
	// closure once; closeCalled makes a second Close a no-op without
	// stopping a later Abort.
	closed, closeCalled bool
	wlocked, holding    bool
}

// connPair is the one allocation behind a dialled connection: both
// ends and both directions, and while the dial is under way (dialed)
// the listener the SYN is for and the dialer's continuation.
type connPair struct {
	a, b   Conn
	ab, ba pipe
	l      *Listener
	fn     func(*Conn, error)
}

// newConnPair wires two conns back to back. aOut shapes a→b traffic and
// bOut shapes b→a traffic.
func newConnPair(n *Network, aAddr, bAddr Addr, aOut, bOut shape, seed int64) *connPair {
	clock := n.clock
	acct := &n.acct
	// Both endpoints count: each closes independently, so ConnsOpened
	// and ConnsClosed balance per conn, not per pair.
	acct.addConnsOpened(2)
	p := new(connPair)
	p.ab.init(clock, acct)
	p.ba.init(clock, acct)
	// Each end draws from its own inline stream, NewRand(seed)'s.
	a, b := &p.a, &p.b
	*a = Conn{net: n, local: aAddr, remote: bAddr, tx: &p.ab, rx: &p.ba, out: aOut,
		src: sim.NewSource(seed), wmu: Mutex{cond: Cond{clock: clock}}, rdl: noDeadline}
	*b = Conn{net: n, local: bAddr, remote: aAddr, tx: &p.ba, rx: &p.ab, out: bOut,
		src: sim.NewSource(seed + 1), wmu: Mutex{cond: Cond{clock: clock}}, rdl: noDeadline}
	a.rng, b.rng = *sim.RandOn(&a.src), *sim.RandOn(&b.src)
	acct.registerConn(a)
	acct.registerConn(b)
	return p
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	n, err, _ := c.rx.readEvent(p, 1, c.rdl, nil)
	return n, err
}

// EventReader and EventWriter are the event forms of a conn's Read and
// Write, for a caller that is a clock event and must not park. Each has
// the contract of Conn.ReadEvent and Conn.WriteEvent: done with what the
// plain call would have returned, or done false where it would have
// parked, with again queued in the parked goroutine's place, to call the
// same form once more (a write with p[n:]). With a nil again each is
// the plain call. Every netem conn, PT conn and tor stream has both.
type (
	EventReader interface {
		ReadEvent(p []byte, again func()) (n int, err error, done bool)
	}
	EventWriter interface {
		WriteEvent(p []byte, again func()) (n int, err error, done bool)
	}
)

// Stream is the one conn type of a world: what Host.Dial and
// Listener.Accept return, what a transport wraps and hands out and what
// tor builds a circuit over. Reads and writes come in plain and event
// form, and the read timeout is a virtual duration.
//
// net.Conn is embedded only because the benchmark passes Host.Dial's
// result where a net.Conn goes; its three deadline setters refuse
// (netDeadlines).
type Stream interface {
	net.Conn
	EventReader
	EventWriter
	// ReadFullEvent is the threshold read (Conn.ReadFullEvent's), here
	// so that a reader of n bytes (a record, a cell, a body) wakes once
	// for them over any stream. A wrapper that changes what reads return
	// (pt.RecordConn) defines its own, or it reads the inner stream's.
	ReadFullEvent(p []byte, again func()) (n int, err error, done bool)
	// SetReadTimeout makes reads time out once d of virtual time has
	// passed from now: at once for d <= 0, never for NoTimeout. A read
	// that times out first returns what has arrived, then ErrTimeout.
	SetReadTimeout(d time.Duration) error
}

// NoTimeout, given to SetReadTimeout, clears the read timeout.
const NoTimeout = time.Duration(math.MaxInt64)

// readDeadline is the instant a read timeout of d set now ends:
// noDeadline for NoTimeout (or any d past the end of virtual time), now
// for d <= 0.
func readDeadline(c *Clock, d time.Duration) time.Duration {
	now := c.Now()
	if d >= NoTimeout-now {
		return noDeadline
	}
	return now + max(d, 0)
}

// errNetDeadline is what the net.Conn deadline setters return.
var errNetDeadline = errors.New("netem: a deadline is a virtual duration; use SetReadTimeout")

// netDeadlines gives Conn and Inbox, and the streams that embed an
// Inbox, net.Conn's three deadline setters. A world has no wall clock
// to set a deadline on, so each refuses and changes nothing.
type netDeadlines struct{}

// SetDeadline implements net.Conn by refusing.
func (netDeadlines) SetDeadline(time.Time) error { return errNetDeadline }

// SetReadDeadline implements net.Conn by refusing.
func (netDeadlines) SetReadDeadline(time.Time) error { return errNetDeadline }

// SetWriteDeadline implements net.Conn by refusing.
func (netDeadlines) SetWriteDeadline(time.Time) error { return errNetDeadline }

// ReadFull reads exactly len(p) bytes, parking once until the byte
// completing the request arrives rather than waking per segment;
// n < len(p) only with a non-nil error (io.EOF on early end-of-stream,
// after draining what arrived). It is ReadFullEvent's nil form.
func (c *Conn) ReadFull(p []byte) (int, error) {
	n, err, _ := c.rx.readEvent(p, len(p), c.rdl, nil)
	return n, err
}

// ReadEvent is Read for an event callback, which must not park: it
// returns done with what Read would have returned, or, where Read would
// park, queues again in the parked reader's place (Cond.WaitEvent) and
// returns done false, having read nothing; again calls ReadEvent once
// more, as the woken Read loops.
func (c *Conn) ReadEvent(p []byte, again func()) (n int, err error, done bool) {
	return c.rx.readEvent(p, 1, c.rdl, again)
}

// ReadFullEvent is ReadFull for an event callback, as ReadEvent is
// Read's: where ReadFull would park it returns done false with the n
// bytes that have arrived so far, and again reads on into p[n:].
func (c *Conn) ReadFullEvent(p []byte, again func()) (n int, err error, done bool) {
	return c.rx.readEvent(p, len(p), c.rdl, again)
}

// SetReadSink replaces the conn's receive direction with inline
// delivery: each segment is handed to fn at its arrival instant on the
// clock's event dispatcher, instead of waking a goroutine parked in
// Read. Delivery and window timing are identical to an always-eager
// reader; only the goroutine switch per segment disappears. Once a sink
// is set, calling Read panics. See ReadSink for the callback contract.
func (c *Conn) SetReadSink(fn ReadSink) { c.rx.setSink(fn, false) }

// SetLoopSink is SetReadSink for a sink that takes the place of a read
// loop, and learns what the loop would have learned when the loop would
// have: the end of the stream, a close, and segments that arrived before
// the sink was set reach it from the clock's run queue, where the
// Broadcast or Go that woke the loop would have run it, rather than from
// an event at the current instant. Segment arrivals are events either
// way.
func (c *Conn) SetLoopSink(fn ReadSink) { c.rx.setSink(fn, true) }

// Write implements net.Conn. Data is chunked into segments; each segment
// reserves transmission time on the sender-egress and receiver-ingress
// buckets and is delivered after the propagation delay plus jitter and
// loss penalties. The writer does not park through its own
// serialization time — the bucket's free cursor carries the pacing into
// every subsequent segment's arrival, like a kernel send buffer
// absorbing small writes — so sender-side backpressure comes from the
// receive-window bound in the pipe. Delivery timing is identical to a
// paced writer; only the (unobserved) instant at which Write returns
// moves earlier, and each elided park halves the event count on the
// simulation's hottest path.
func (c *Conn) Write(p []byte) (int, error) {
	n, err, _ := c.WriteEvent(p, nil)
	return n, err
}

// WriteEvent is Write for an event callback, which must not park: a
// partial write that resumes where Write would have. It returns done
// with what Write would have returned, or, where Write would park — on
// the writer lock, or with a shaped segment the receive window cannot
// take yet — it queues again where the parked writer would have been
// readied (Cond.WaitEvent) and returns done false and n, the bytes taken
// so far, the held segment's among them. again calls WriteEvent once
// more with p[n:] (perhaps empty), which lands the held segment first.
// The segment is shaped when Write would have shaped it, before the
// wait, so its bucket time, draws and filter verdict are Write's. With a
// nil again it is Write, which parks instead.
func (c *Conn) WriteEvent(p []byte, again func()) (n int, err error, done bool) {
	if !c.lockWrite(again) {
		return 0, nil, false
	}
	if ok, err := c.landHeld(again); !ok {
		return 0, nil, false
	} else if err != nil {
		return 0, err, c.unlockWrite()
	}
	for len(p) > 0 {
		k := min(len(p), segmentSize)
		data, base, pool := getSegBuf(c.tx.clock, p[:k])
		arrival, err := c.shape(data, base, pool)
		if err != nil {
			return n, err, c.unlockWrite()
		}
		c.held, c.holding = seg{data: data, base: base, pool: pool, at: arrival}, true
		n += k
		p = p[k:]
		if ok, err := c.landHeld(again); !ok {
			return n, nil, false
		} else if err != nil {
			return n - k, err, c.unlockWrite()
		}
	}
	return n, nil, c.unlockWrite()
}

// lockWrite takes the writer lock for a write, unless an event write
// holds it already. A plain write (nil again) is never an event write's
// resumption: it waits in LockEvent and holds the lock without marking
// it, so an event write that comes meanwhile queues for it.
func (c *Conn) lockWrite(again func()) bool {
	if !c.wlocked || again == nil {
		if !c.wmu.LockEvent(again) {
			return false
		}
		c.wlocked = again != nil
	}
	return true
}

// unlockWrite ends a write, releasing the writer lock; it reports done.
func (c *Conn) unlockWrite() bool {
	c.wlocked = false
	c.wmu.Unlock()
	return true
}

// landHeld pushes the held segment, if any: ok false means it waits for
// the window, with again queued; a nil again parks until it lands.
func (c *Conn) landHeld(again func()) (ok bool, err error) {
	if !c.holding {
		return true, nil
	}
	done, err := c.tx.push(&c.held, again)
	if done {
		c.held, c.holding = seg{}, false
	}
	return done, err
}

// TryWriteOwned is a zero-copy single-segment write for an inline
// event callback that leaves nothing waiting: ownership of data's
// backing array base, a lease of the class whose token is pool (when
// both are non-nil), passes to the conn, which hands it through the
// pipe to the reader untouched. ok is
// false, and ownership stays with the caller, when data is more than
// one segment or a write would have to wait (writer lock held or
// receive window full); the refusal comes before any bucket time is
// booked or any jitter or loss drawn. ok true means the segment was
// consumed, with err reporting a closed/reset conn exactly like Write.
// A write that cannot wait needs neither the writer lock nor the held
// segment: the segment is shaped and pushed as Write would, in one go.
func (c *Conn) TryWriteOwned(data []byte, base *[]byte, pool *sync.Pool) (ok bool, err error) {
	if len(data) > segmentSize || c.wmu.locked || c.tx.wouldPark(len(data)) {
		return false, nil
	}
	arrival, err := c.shape(data, base, pool)
	if err != nil {
		return true, err
	}
	s := seg{data: data, base: base, pool: pool, at: arrival}
	_, err = c.tx.push(&s, nil)
	return true, err
}

// TryWrite is Write without parking, for inline event callbacks: it
// writes all of p or nothing. ok is false, and nothing is written, when
// the writer lock is held or p does not fit the receive window: the
// refusal comes before any bucket time is booked or any jitter or loss
// drawn. Otherwise err is what Write would have returned.
func (c *Conn) TryWrite(p []byte) (ok bool, err error) {
	if c.wmu.locked || c.tx.wouldPark(len(p)) {
		return false, nil
	}
	_, err = c.Write(p)
	return true, err
}

// shape runs one segment through the policy filter and the egress,
// ingress and shaper reservations, and returns its arrival instant; a
// Reset verdict recycles the segment, aborts the conn and returns
// ErrReset.
func (c *Conn) shape(data []byte, base *[]byte, pool *sync.Pool) (time.Duration, error) {
	n := len(data)
	var censored time.Duration
	var shaper *Bucket
	if pol := c.net.policy; pol != nil {
		c.net.acct.addSegmentFiltered()
		v := pol.FilterSegment(Flow{Src: c.local.host, Dst: c.remote.host, Memo: &c.memo}, n)
		if v.Action == Reset {
			c.tx.clock.Recycle(pool, base)
			c.Abort()
			return 0, ErrReset
		}
		censored = v.Extra
		shaper = v.Shaper
	}
	now := c.tx.clock.Now()
	done := c.out.egress.Reserve(now, n)
	done = c.out.ingress.Reserve(done, n)
	if shaper != nil {
		done = shaper.Reserve(done, n)
		censored += shaper.QueueDelay()
	}
	return done + c.out.delay + c.extraDelay() + censored +
		c.out.egress.QueueDelay() + c.out.ingress.QueueDelay(), nil
}

// WriteBudget reports how many payload bytes a Write can currently
// accept without parking on receive-window backpressure, 0 once either
// end has closed. It is a snapshot, not a reservation: concurrent
// writers can consume the space between the probe and the write, in
// which case the write simply parks as usual. Schedulers that must not
// stall head-of-line (the tor relay cell scheduler's KIST-style
// budgeting) probe it instead of issuing blind blocking writes.
func (c *Conn) WriteBudget() int {
	if c.closed {
		return 0
	}
	return c.tx.freeSpace()
}

// extraDelay draws the per-segment jitter and loss penalty.
func (c *Conn) extraDelay() time.Duration {
	var d time.Duration
	if c.out.jitter > 0 {
		d += time.Duration(c.rng.Int63n(int64(c.out.jitter)))
	}
	if c.out.loss > 0 && c.rng.Float64() < c.out.loss {
		d += c.out.lossPen
	}
	return d
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	if !c.closeCalled {
		c.closeCalled = true
		c.markClosed()
		c.tx.closeWrite()
		c.rx.closeRead()
	}
	return nil
}

// markClosed counts the flow's closure exactly once across Close and
// Abort.
func (c *Conn) markClosed() {
	if !c.closed {
		c.closed = true
		c.net.acct.addConnClosed()
	}
}

// CloseWrite half-closes the sending direction, like TCP shutdown(WR).
func (c *Conn) CloseWrite() error {
	c.tx.closeWrite()
	return nil
}

// Abort tears the connection down as a mid-transfer failure: the peer's
// pending data is dropped and both directions error out. Failure-injection
// models (snowflake proxy churn, meek session budgets) use this.
func (c *Conn) Abort() {
	c.markClosed()
	c.tx.closeWrite()
	c.tx.closeRead()
	c.rx.closeRead()
}

// Closed reports whether Close or Abort has been called; policies use
// it to prune their flow registries.
func (c *Conn) Closed() bool { return c.closed }

// Clock returns the clock of the conn's world, whose lists the leases a
// read sink is handed go back to (Clock.Recycle).
func (c *Conn) Clock() *Clock { return c.net.clock }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetReadTimeout implements Stream. A read already parked keeps the
// timeout it parked with.
func (c *Conn) SetReadTimeout(d time.Duration) error {
	c.rdl = readDeadline(c.tx.clock, d)
	return nil
}
