package netem

import (
	"errors"
	"io"
	"sync"
	"time"
)

// Shaping errors surfaced through net.Conn operations.
var (
	// ErrClosed is returned for operations on a closed conn.
	ErrClosed = errors.New("netem: use of closed connection")
	// ErrReset is returned when writing to a conn whose peer has closed.
	ErrReset = errors.New("netem: connection reset by peer")
	// ErrTimeout is returned when a read timeout expires. It satisfies
	// net.Error with Timeout() == true via timeoutError.
	ErrTimeout = &timeoutError{}
)

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netem: i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// seg is one shaped segment in flight: its payload and the virtual time
// at which the last byte arrives at the receiver. base retains the
// backing array while data shrinks across partial reads; pool is the
// token of the class base returns to once fully consumed (nil for plain
// GC-owned allocations). Carrying the class in the segment is what
// makes zero-copy handoff safe: a caller can push a buffer leased from
// its own class (e.g. the tor layer's 512-byte cells) and the pipe
// recycles it to the right list instead of poisoning the 16K segment
// list with short arrays.
type seg struct {
	data []byte
	base *[]byte
	pool *sync.Pool
	at   time.Duration
}

// segBufs are the bulk segment arrays; segment copies are the
// simulation's dominant allocation, so each world recycles its own
// (BufClass).
var segBufs = NewBufClass("segment", func() *[]byte {
	b := make([]byte, segmentSize)
	return &b
})

// smallBufSize bounds the small-frame class: cells, handshakes and acks
// all fit, and a 2× size overhead on a transient buffer is cheaper than
// a GC allocation per frame.
const smallBufSize = 1024

// smallBufs are the small-frame arrays (protocol cells are the hot
// case: a contention sweep pushes hundreds of thousands of 512-byte
// frames).
var smallBufs = NewBufClass("small", func() *[]byte {
	b := make([]byte, smallBufSize)
	return &b
})

// getSegBuf returns a buffer of c's world holding a copy of p: small
// frames and bulk segments lease from their size classes; anything
// larger than segmentSize falls back to a plain allocation (slicing a
// segmentSize array used to panic with slice bounds out of range).
func getSegBuf(c *Clock, p []byte) (data []byte, base *[]byte, pool *sync.Pool) {
	cls := segBufs
	switch {
	case len(p) <= smallBufSize:
		cls = smallBufs
	case len(p) > segmentSize:
		data = make([]byte, len(p))
		copy(data, p)
		return data, nil, nil
	}
	base = cls.Get(c)
	data = (*base)[:len(p)]
	copy(data, p)
	return data, base, cls.Token()
}

// ReadSink is an inline segment consumer registered with
// Conn.SetReadSink. Each arrived segment is delivered exactly at its
// arrival instant on the clock's event dispatcher, with ownership of
// the backing array: Clock.Recycle(pool, base) returns it to the
// world's list of its class.
// After the terminal call — data nil and err non-nil (io.EOF once
// drained, ErrClosed on reset/close) — no further calls are made.
//
// Sink callbacks run as inline clock events and must never park: they
// use the event forms (Conn.WriteEvent, Chan.RecvEvent, Mutex.LockEvent
// and the rest), whose continuation runs where a parked goroutine would
// have resumed, the refusals that never wait (Conn.TryWrite,
// Chan.TrySend) and EventAt or ReadyEvent, which start work such as a
// teardown where a goroutine spawned for it would have started.
type ReadSink func(data []byte, base *[]byte, pool *sync.Pool, err error)

// pipe is one direction of a shaped duplex connection. All waits go
// through the scheduler cond, so a blocked reader or writer releases its
// run token and virtual time can advance to the segment arrivals and
// deadlines it is waiting for.
type pipe struct {
	clock *Clock
	acct  *Acct // network accounting

	cond Cond
	// segs queues the segments in flight, in write order, on nodes
	// from the network's list of segNodes: a closed pipe leaves no
	// array behind.
	segs     Queue[seg]
	buffered int // bytes queued and not yet read
	// rdWant, while a reader is parked, is the byte count it
	// still needs; enqueue skips the arrival wake until the queue
	// holds that much, so a threshold reader parks once per request
	// instead of once per arriving segment.
	rdWant int

	// sink, when set, replaces parked reads with inline delivery events
	// (see ReadSink). sinkArmed marks a pending delivery event;
	// sinkDone marks the terminal callback as delivered.
	sink      ReadSink
	sinkFn    func() // cached p.sinkEvent bound method (one closure, not one per arm)
	deliverFn func() // cached p.deliver, for wakeSink
	sinkArmed bool
	sinkDone  bool
	loop      bool // the sink stands in for a read loop (Conn.SetLoopSink)
	wclosed   bool // writer has closed; reader drains then sees EOF
	rclosed   bool // reader has closed; writes fail
}

// segNodes is the class of the nodes pipes queue segments on.
var segNodes NodeClass[seg]

// pipeWindow is a pipe's receive window, the bound on its buffered
// bytes that a writer waits on.
const pipeWindow = 256 << 10

// init readies a pipe in place.
func (p *pipe) init(clock *Clock, acct *Acct) {
	*p = pipe{clock: clock, acct: acct, cond: Cond{clock: clock}}
	p.segs.Init(segNodes.For(acct))
	acct.registerPipe(p)
}

func vtExpired(c *Clock, vt time.Duration) bool {
	return vt != noDeadline && c.Now() >= vt
}

// push enqueues a shaped segment, waiting while the receive window is
// full: a nil fn parks, any other is queued in the writer's place
// (Cond.WaitEvent) and push returns done false, keeping s for fn's
// retry. It returns an error if either side has closed. Ownership of
// s's base transfers to the pipe once done (errors recycle it).
func (p *pipe) push(s *seg, fn func()) (done bool, err error) {
	for p.wouldPark(len(s.data)) {
		if p.cond.WaitEvent(fn) {
			return false, nil
		}
	}
	if p.wclosed {
		p.clock.Recycle(s.pool, s.base)
		return true, ErrClosed
	}
	if p.rclosed {
		p.clock.Recycle(s.pool, s.base)
		return true, ErrReset
	}
	p.enqueue(s.data, s.base, s.pool, s.at)
	return true, nil
}

// wouldPark reports whether a push of n more bytes would park on the
// receive-window bound; a closed pipe fails a push instead.
func (p *pipe) wouldPark(n int) bool {
	return p.buffered+n > pipeWindow && !p.rclosed && !p.wclosed
}

// enqueue appends a segment and schedules its consumption at the
// arrival instant: an inline delivery event in sink mode, otherwise a
// parked-reader wake-up (waking the reader at push time would only make
// it re-park until the data has propagated).
func (p *pipe) enqueue(data []byte, base *[]byte, pool *sync.Pool, arrival time.Duration) {
	p.segs.Push(seg{data: data, base: base, pool: pool, at: arrival})
	p.buffered += len(data)
	p.acct.addSent(len(data))
	if p.sink != nil {
		p.armSink()
		return
	}
	if p.rdWant == 0 || p.buffered >= p.rdWant {
		p.cond.WakeAt(arrival)
	}
}

// setSink registers an inline consumer for this pipe's segments; any
// already-queued data (or a pending close) is delivered through it.
// Reads and sink mode are mutually exclusive from this point on.
func (p *pipe) setSink(fn ReadSink, loop bool) {
	p.sink, p.loop = fn, loop
	p.sinkFn, p.deliverFn = p.sinkEvent, p.deliver
	p.wakeSink()
}

// wakeSink is armSink for a change that a parked reader learns of at
// once, from the Broadcast that wakes it: the pipe closed, or the sink
// replaced a reader that had not yet run. For a loop sink, what the
// reader would then have read, segments already arrived or the end of
// the stream, goes to the sink from the clock's run queue, where the
// woken reader would have run; anything still in flight waits for its
// arrival event.
func (p *pipe) wakeSink() {
	if !p.loop {
		p.armSink()
		return
	}
	if p.sink == nil || p.sinkDone {
		return
	}
	head := p.segs.Front()
	if p.rclosed || (head == nil && p.wclosed) || (head != nil && head.at <= p.clock.Now()) {
		p.clock.ReadyEvent(p.deliverFn)
		return
	}
	p.armSink()
}

// armSink schedules the next delivery event unless one is already
// armed: at the head segment's arrival instant, or immediately when the
// pipe has closed and only the terminal callback remains.
func (p *pipe) armSink() {
	if p.sink == nil || p.sinkArmed || p.sinkDone {
		return
	}
	at := p.clock.Now()
	if head := p.segs.Front(); head != nil {
		at = max(at, head.at)
	} else if !p.wclosed && !p.rclosed {
		return // nothing to deliver yet
	}
	p.sinkArmed = true
	p.clock.EventAt(at, p.sinkFn)
}

// sinkEvent delivers every arrived segment (and, once drained on a
// closed pipe, the terminal error) to the sink. Window accounting is
// identical to read at the same instants, so writer backpressure —
// freeSpace, push parking — behaves exactly as it does for an eager
// parked reader.
func (p *pipe) sinkEvent() {
	p.sinkArmed = false
	p.deliver()
}

// deliver hands the sink what sinkEvent does; from wakeSink it runs with
// an arrival event possibly still armed, which then finds less or
// nothing to deliver.
func (p *pipe) deliver() {
	if p.sink == nil || p.sinkDone {
		return
	}
	now := p.clock.Now()
	var batchArr [8]seg
	batch := batchArr[:0]
	total := 0
	for head := p.segs.Front(); head != nil && head.at <= now; head = p.segs.Front() {
		s := p.segs.Pop()
		batch = append(batch, s)
		total += len(s.data)
	}
	var term error
	if p.rclosed {
		term = ErrClosed
	} else if p.wclosed && p.segs.Len() == 0 {
		term = io.EOF
	}
	if total > 0 {
		p.buffered -= total
		p.acct.addDelivered(total)
	}
	if term != nil {
		p.sinkDone = true
	} else {
		p.armSink()
	}
	if total > 0 {
		// Receive-window space was freed; unblock parked writers.
		p.cond.Broadcast()
	}
	for _, s := range batch {
		p.sink(s.data, s.base, s.pool, nil)
	}
	if term != nil {
		p.sink(nil, nil, nil, term)
	}
}

// readEvent is the one read path. It copies arrived bytes into buf, in
// order, until at least min of them are there, parking through
// propagation delay as needed; when the stream ends or the read
// deadline vt (noDeadline for none) passes first it returns what had
// arrived with io.EOF, ErrClosed or ErrTimeout (end of stream is
// reported ahead of an expired deadline). Conn.Read asks for one byte,
// Conn.ReadFull for len(buf). It never returns (0, nil) except for a
// zero-length buf, which returns at once per the io.Reader contract.
//
// Every segment that has already arrived is drained, not just the
// first: bulk readers hand in large buffers, and one batched read
// replaces a park/re-read cycle per segment. While parked the reader
// suppresses per-segment arrival wake-ups: it wakes at the arrival
// instant of the byte completing the request (or at close/deadline),
// which is exactly when an eager read loop would have consumed that
// byte. Window space is freed in request-sized steps rather than per
// segment, so a writer parked on the receive-window bound can unpark
// up to one request later than under an eager reader.
//
// A nil fn parks, and the read is done when it returns. A non-nil fn
// makes it the event form: where it would park it queues fn in the
// reader's place (Cond.wait) and returns done false with the bytes
// copied so far, and fn reads on with the rest of buf. With min 1 a
// wait comes only before the first byte.
func (p *pipe) readEvent(buf []byte, min int, vt time.Duration, fn func()) (total int, err error, done bool) {
	if len(buf) == 0 {
		return 0, nil, true
	}
	if p.sink != nil {
		panic("netem: Read on a conn with an inline read sink")
	}
	for {
		p.rdWant = 0 // a wait, if any, has ended
		n, err, wake, done := p.readPass(buf[total:], min-total, vt)
		total += n
		if done {
			return total, err, true
		}
		if _, queued := p.cond.wait(wake, fn); queued {
			return total, nil, false
		}
	}
}

// readPass is one turn of read's loop over buf, of which min bytes are
// still wanted: it drains what has arrived and reports done with the
// error to return, or the instant to wait until, with rdWant set when
// only a push can end the wait early.
func (p *pipe) readPass(buf []byte, min int, vt time.Duration) (total int, err error, wake time.Duration, done bool) {
	if p.rclosed {
		return 0, ErrClosed, 0, true
	}
	now := p.clock.Now()
	for s := p.segs.Front(); s != nil && s.at <= now && total < len(buf); s = p.segs.Front() {
		n := copy(buf[total:], s.data)
		total += n
		if n < len(s.data) {
			s.data = s.data[n:]
			break
		}
		p.clock.Recycle(s.pool, s.base)
		p.segs.Pop()
	}
	if total > 0 {
		p.buffered -= total
		p.acct.addDelivered(total)
		p.cond.Broadcast()
	}
	if total >= min {
		return total, nil, 0, true
	}
	if p.wclosed && p.segs.Len() == 0 {
		return total, io.EOF, 0, true
	}
	if vtExpired(p.clock, vt) {
		return total, ErrTimeout, 0, true
	}
	// Pick the park horizon: the instant the request's in-order
	// prefix has fully arrived if the queue already holds enough
	// bytes, the whole queue's arrival if the writer has closed
	// (drain, then EOF), else the deadline — with pushes waking us
	// early only once the queue can complete the request. Delivery
	// is in order but jitter can reorder raw arrivals, so the
	// horizon is the *maximum* arrival over the prefix — waiting on
	// the completing segment alone could pick an instant already in
	// the past while the head segment is still in flight.
	wake = vt
	need := min - total
	queued := 0
	var arr time.Duration
	for nd := p.segs.head; nd != nil && queued < need; nd = nd.next {
		queued += len(nd.v.data)
		arr = max(arr, nd.v.at)
	}
	if queued >= need || p.wclosed {
		if vt == noDeadline || arr < vt {
			wake = arr
		}
	} else {
		p.rdWant = need
	}
	return total, nil, wake, false
}

// freeSpace reports how many more payload bytes push would accept
// without parking on the receive-window bound; 0 once either side has
// closed. The conn layer exposes it as the write-budget probe.
func (p *pipe) freeSpace() int {
	if p.rclosed || p.wclosed {
		return 0
	}
	if free := pipeWindow - p.buffered; free > 0 {
		return free
	}
	return 0
}

// closeWrite marks the writer side closed; the reader drains then gets EOF.
func (p *pipe) closeWrite() {
	p.wclosed = true
	p.wakeSink()
	p.cond.Broadcast()
}

// closeRead marks the reader side closed; pending data is dropped and
// subsequent writes fail with ErrReset.
func (p *pipe) closeRead() {
	p.rclosed = true
	for p.segs.Len() > 0 {
		s := p.segs.Pop()
		p.clock.Recycle(s.pool, s.base)
	}
	p.acct.addDropped(p.buffered)
	p.buffered = 0
	p.wakeSink()
	p.cond.Broadcast()
}
