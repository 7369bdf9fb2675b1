package pt

import (
	"net"
	"slices"

	"ptperf/internal/netem"
)

// Addr names one end of a tunnelled stream: the transport it rides and
// the role of the end.
type Addr struct{ Transport, End string }

// Network returns the transport name.
func (a Addr) Network() string { return a.Transport }

func (a Addr) String() string { return a.End }

// Stream is the virtual byte-stream endpoint every tunnelling transport
// hands out as its netem.Stream. The application reads and writes it; the
// transport's mechanism (a poll loop, a message receiver, an automaton
// walk) moves the bytes on the other side with Deliver, DeliverSeq,
// Take, PeerFin and Fail. A transport whose writes go straight to the
// wire as messages or blocks shadows Write and uses the read half only.
//
// The read half, with the read timeout, is the embedded netem.Inbox,
// which tor's streams share. Write has an event form (WriteEvent), as
// Read has (ReadEvent), for a caller that must not park, pt.Splice's
// pumps: where the plain call parks, the form queues its continuation
// in the parked goroutine's place. There is deliberately no
// CloseWrite: a splice pump half-closes a destination that has one and
// Closes the rest, and a polling or messaging tunnel has no FIN frame
// to carry a half-close. A transport that does have one (marionette)
// exports CloseWrite itself on top of EndWrite.
type Stream struct {
	netem.Inbox
	local, remote Addr
	outCap        int

	// writers parks Write until the queue has room; the inbox parks
	// reads. Each waker readies only the side it can unblock, so neither
	// side wakes to park again.
	writers *netem.Cond
	// next is the sequence number DeliverSeq appends next; held keeps
	// the deliveries that arrived ahead of it, spare the arrays of the
	// ones appended since, for the next early arrival.
	next  uint64
	held  map[uint64][]byte
	spare [][]byte
	// unsent holds what was written and not yet taken, in chunks leased
	// from the world that no write regrows.
	unsent netem.ByteQueue
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
	return &Stream{Inbox: netem.NewInbox(clock), local: Addr{transport, local}, remote: Addr{transport, remote},
		outCap: outCap, writers: netem.NewCond(clock), unsent: netem.NewByteQueue(clock)}
}

// Write implements netem.Stream: bytes queue for the mechanism, and the
// bounded queue is the tunnel's backpressure.
func (s *Stream) Write(p []byte) (int, error) {
	n, err, _ := s.WriteEvent(p, nil)
	return n, err
}

// WriteEvent is Write for an event callback (netem.Conn.WriteEvent has
// the contract), or Write itself for a nil again.
func (s *Stream) WriteEvent(p []byte, again func()) (written int, err error, done bool) {
	for len(p) > 0 {
		for s.unsent.Len() >= s.outCap && !s.closed {
			if s.writers.WaitEvent(again) {
				return written, nil, false
			}
		}
		if s.closed || s.wdone {
			return written, netem.ErrClosed, true
		}
		n := min(len(p), s.outCap-s.unsent.Len())
		s.unsent.Push(p[:n])
		written += n
		p = p[n:]
	}
	return written, nil, true
}

// Close implements netem.Stream.
func (s *Stream) Close() error {
	s.Fail()
	return nil
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr { return s.local }

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return s.remote }

// EndWrite half-closes the sending direction: queued bytes still go
// out, and WriteEnded tells the mechanism when to send its FIN.
func (s *Stream) EndWrite() {
	s.wdone = true
	s.writers.Broadcast()
}

// WriteEnded reports whether EndWrite was called and every queued byte
// has been taken.
func (s *Stream) WriteEnded() bool {
	return s.wdone && s.unsent.Len() == 0
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
	s.Deliver(p)
	s.next++
	for {
		early, ok := s.held[s.next]
		if !ok {
			break
		}
		delete(s.held, s.next)
		s.Deliver(early)
		s.spare = append(s.spare, early)
		s.next++
	}
	if s.finished() {
		s.End()
	}
}

// finished reports that every unit before the peer's FIN has been
// delivered (a FIN can overtake the last units, as on stegotorus's
// fan-out conns).
func (s *Stream) finished() bool {
	return s.fin > 0 && s.next >= s.fin-1
}

// Take removes at most n written bytes and appends them to dst (grown
// if it is too small), which comes back unchanged when none wait: a
// framer appends its header, takes the body straight after it and
// patches the length. It keeps working after Close, so a queue filled
// before the close still drains to the peer.
func (s *Stream) Take(dst []byte, n int) []byte {
	n = min(n, s.unsent.Len())
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	s.unsent.TakeInto(dst[len(dst) : len(dst)+n])
	s.writers.Broadcast()
	return dst[:len(dst)+n]
}

// PeerFin records the peer's end of stream after total sequenced units
// (0 for a mechanism that delivers in order): Read reports io.EOF once
// they have all arrived and drained. A FIN that overtook units still
// wakes the reader, which finds them missing and parks again.
func (s *Stream) PeerFin(total uint64) {
	s.fin = total + 1
	if s.finished() {
		s.End()
	} else {
		s.Wake()
	}
}

// Fail tears the stream down from the mechanism side; it never parks,
// so staleness events may call it.
func (s *Stream) Fail() {
	s.closed = true
	s.End()
	s.writers.Broadcast()
}

// Closed reports whether Close or Fail has been called.
func (s *Stream) Closed() bool {
	return s.closed
}
