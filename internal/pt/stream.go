package pt

import (
	"io"
	"net"
	"time"

	"ptperf/internal/netem"
)

// Addr names one end of a tunnelled stream: the transport it rides and
// the role of the end.
type Addr struct{ Transport, End string }

// Network returns the transport name.
func (a Addr) Network() string { return a.Transport }

func (a Addr) String() string { return a.End }

// Stream is the virtual byte-stream endpoint every tunnelling transport
// hands out as its net.Conn. The application reads and writes it; the
// transport's mechanism (a poll loop, a message receiver, an automaton
// walk) moves the bytes on the other side with Deliver, DeliverSeq,
// Take, PeerFin and Fail. A transport whose writes go straight to the
// wire as messages or blocks shadows Write and uses the read half only.
//
// Read and Write have event forms (ReadEvent, WriteEvent) for a caller
// that must not park, pt.Splice's pumps: where the plain call parks, the
// form queues its continuation in the parked goroutine's place. There is
// deliberately no CloseWrite: a splice pump half-closes a destination
// that has one and Closes the rest, and a polling or messaging tunnel
// has no FIN frame to carry a half-close. A transport that does have one
// (marionette) exports CloseWrite itself on top of EndWrite.
type Stream struct {
	clock         *netem.Clock
	local, remote Addr
	outCap        int

	// readers parks Read until bytes, EOF or the deadline; writers
	// parks Write until the queue has room. Each waker readies only the
	// side it can unblock, so neither side wakes to park again.
	readers, writers *netem.Cond
	// in[inHead:] is delivered and not yet read, out[outHead:] written
	// and not yet taken. Both are head-indexed queues that keep their
	// arrays (netem.Compact) however many bytes pass through.
	in     []byte
	inHead int
	// next is the sequence number DeliverSeq appends next; held keeps
	// the deliveries that arrived ahead of it, spare the arrays of the
	// ones appended since, for the next early arrival.
	next    uint64
	held    map[uint64][]byte
	spare   [][]byte
	out     []byte
	outHead int
	rdl     time.Time
	// rdBuf, while a ReadFull is parked, is the rest of its request:
	// deliveries fill it directly (rdGot bytes so far) and wake the
	// reader only once it is full.
	rdBuf []byte
	rdGot int
	// closed is the hard teardown (Close or Fail): reads drain what was
	// delivered and then report io.EOF, writes fail.
	closed bool
	wdone  bool
	// fin is the peer's announced delivery count plus one; 0 means no
	// FIN yet.
	fin uint64
}

// NewStream returns an open stream between the named ends of a
// transport's tunnel; its Write blocks once outCap bytes wait to be
// taken.
func NewStream(clock *netem.Clock, transport, local, remote string, outCap int) *Stream {
	s := &Stream{clock: clock, local: Addr{transport, local}, remote: Addr{transport, remote}, outCap: outCap}
	s.readers, s.writers = netem.NewCond(clock), netem.NewCond(clock)
	return s
}

// Read implements net.Conn. Delivered bytes drain before io.EOF.
func (s *Stream) Read(p []byte) (int, error) {
	n, err, _ := s.readEvent(p, 1, nil)
	return n, err
}

// ReadFull fills p, parking until len(p) bytes have been delivered
// rather than waking for each delivery on the way; n < len(p) only with
// an error, io.EOF once the stream has ended or closed, or the deadline.
// It is netem.FullReader's threshold read: a bulk reader (the fetch body
// copy) parks once per request.
func (s *Stream) ReadFull(p []byte) (int, error) {
	n, err, _ := s.readEvent(p, len(p), nil)
	return n, err
}

// ReadEvent is Read for an event callback (netem.Conn.ReadEvent has the
// contract).
func (s *Stream) ReadEvent(p []byte, again func()) (n int, err error, done bool) {
	return s.readEvent(p, 1, again)
}

// readEvent is the one read path: it returns once want bytes are in p,
// or with what there is when the stream ends or the deadline passes. A
// ReadFull takes what is queued and parks with the rest of its request
// as rdBuf, which deliveries fill in place of the queue. With again
// non-nil it is an event read (want 1), which queues again where it
// would park.
func (s *Stream) readEvent(p []byte, want int, again func()) (int, error, bool) {
	n, want := 0, min(want, len(p))
	for {
		k := copy(p[n:], s.in[s.inHead:])
		if s.inHead += k; s.inHead == len(s.in) {
			s.in, s.inHead = s.in[:0], 0
		}
		switch n += k; {
		case n >= want:
			return n, nil, true
		case s.ended():
			return n, io.EOF, true
		case s.clock.Expired(s.rdl):
			return n, netem.ErrTimeout, true
		}
		if want > 1 {
			s.rdBuf = p[n:want]
		}
		if _, queued := s.readers.WaitEvent(s.rdl, again); queued {
			return 0, nil, false
		}
		n += s.rdGot
		s.rdBuf, s.rdGot = nil, 0
	}
}

// ended reports that reads are over once the queue drains: the stream
// has closed, or every unit before the peer's FIN has been delivered.
func (s *Stream) ended() bool {
	return s.closed || (s.fin > 0 && s.next >= s.fin-1)
}

// deliver appends p to the read side: into a parked ReadFull's rdBuf
// while it has room, then to the queue.
func (s *Stream) deliver(p []byte) {
	if len(s.rdBuf) > 0 && s.inHead == len(s.in) {
		k := copy(s.rdBuf, p)
		s.rdBuf, s.rdGot, p = s.rdBuf[k:], s.rdGot+k, p[k:]
	}
	if len(p) > 0 {
		s.in, s.inHead = netem.Compact(s.in, s.inHead, len(p))
		s.in = append(s.in, p...)
	}
}

// queued counts the bytes written and not yet taken.
func (s *Stream) queued() int { return len(s.out) - s.outHead }

// Write implements net.Conn: bytes queue for the mechanism, and the
// bounded queue is the tunnel's backpressure.
func (s *Stream) Write(p []byte) (int, error) {
	n, err, _ := s.WriteEvent(p, nil)
	return n, err
}

// WriteEvent is Write for an event callback (netem.Conn.WriteEvent has
// the contract), or Write itself for a nil again.
func (s *Stream) WriteEvent(p []byte, again func()) (written int, err error, done bool) {
	for len(p) > 0 {
		for s.queued() >= s.outCap && !s.closed {
			if _, queued := s.writers.WaitEvent(time.Time{}, again); queued {
				return written, nil, false
			}
		}
		if s.closed || s.wdone {
			return written, netem.ErrClosed, true
		}
		n := min(len(p), s.outCap-s.queued())
		s.out, s.outHead = netem.Compact(s.out, s.outHead, n)
		s.out = append(s.out, p[:n]...)
		written += n
		p = p[n:]
	}
	return written, nil, true
}

// Close implements net.Conn.
func (s *Stream) Close() error {
	s.Fail()
	return nil
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr { return s.local }

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return s.remote }

// SetDeadline implements net.Conn; only reads observe deadlines.
func (s *Stream) SetDeadline(t time.Time) error { return s.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn. A parked Read observes the new
// deadline at once.
func (s *Stream) SetReadDeadline(t time.Time) error {
	if err := netem.CheckDeadline(t); err != nil {
		return err
	}
	s.rdl = t
	s.readers.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn; writes are paced by the
// mechanism and never time out.
func (s *Stream) SetWriteDeadline(t time.Time) error { return netem.CheckDeadline(t) }

// EndWrite half-closes the sending direction: queued bytes still go
// out, and WriteEnded tells the mechanism when to send its FIN.
func (s *Stream) EndWrite() {
	s.wdone = true
	s.writers.Broadcast()
}

// WriteEnded reports whether EndWrite was called and every queued byte
// has been taken.
func (s *Stream) WriteEnded() bool {
	return s.wdone && s.queued() == 0
}

// Deliver appends received bytes to the read side. Bytes arriving after
// the stream closed are dropped: nobody will read them.
func (s *Stream) Deliver(p []byte) {
	if s.closed {
		return
	}
	s.deliver(p)
	s.wakeReader()
}

// wakeReader readies a parked reader: any Read, and a ReadFull once
// its request is full or the stream has ended (a FIN can overtake the
// last units, as on stegotorus's fan-out conns). Filling the request in
// place keeps the queue from growing to hold it, which a byte-count
// threshold over the queue would not.
func (s *Stream) wakeReader() {
	if len(s.rdBuf) == 0 || s.ended() {
		s.readers.Broadcast()
	}
}

// DeliverSeq is Deliver for mechanisms whose units arrive out of order:
// unit seq (counting from 0) is appended once every earlier one has
// been, a duplicate is ignored, and a unit that never arrives stalls
// the stream for good.
func (s *Stream) DeliverSeq(seq uint64, p []byte) {
	if s.closed || seq < s.next {
		return
	}
	if seq > s.next {
		if s.held == nil {
			s.held = make(map[uint64][]byte)
		}
		var buf []byte
		if n := len(s.spare); n > 0 {
			buf, s.spare = s.spare[n-1], s.spare[:n-1]
		}
		s.held[seq] = append(buf[:0], p...)
		return
	}
	s.deliver(p)
	s.next++
	for {
		early, ok := s.held[s.next]
		if !ok {
			break
		}
		delete(s.held, s.next)
		s.deliver(early)
		s.spare = append(s.spare, early)
		s.next++
	}
	s.wakeReader()
}

// Take removes at most n written bytes and returns them in buf's array
// (grown if it is too small; a poll loop hands back what the last call
// returned), empty when none wait. It keeps working after Close, so a
// queue filled before the close still drains to the peer.
func (s *Stream) Take(buf []byte, n int) []byte {
	n = min(n, s.queued())
	if n == 0 {
		return buf[:0]
	}
	buf = append(buf[:0], s.out[s.outHead:s.outHead+n]...)
	if s.outHead += n; s.outHead == len(s.out) {
		s.out, s.outHead = s.out[:0], 0
	}
	s.writers.Broadcast()
	return buf
}

// PeerFin records the peer's end of stream after total sequenced units
// (0 for a mechanism that delivers in order): Read reports io.EOF once
// they have all arrived and drained.
func (s *Stream) PeerFin(total uint64) {
	s.fin = total + 1
	s.readers.Broadcast()
}

// Fail tears the stream down from the mechanism side; it never parks,
// so staleness events may call it.
func (s *Stream) Fail() {
	s.closed = true
	s.readers.Broadcast()
	s.writers.Broadcast()
}

// Closed reports whether Close or Fail has been called.
func (s *Stream) Closed() bool {
	return s.closed
}
