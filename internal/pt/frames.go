package pt

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ptperf/internal/netem"
)

// FrameCut finds the frame at the head of b, the bytes of a conn that
// have arrived and are not yet cut: its body is b[body:end]. end is 0
// while more bytes are needed, and an error means b starts no frame.
type FrameCut func(b []byte) (body, end int, err error)

// FrameConn is the one inline frame endpoint of the tunnelling
// transports: one end of a netem conn whose read sink reassembles the
// peer's frames, a frame straddling segments or several sharing one, and
// hands each to the transport's handler in the clock event that brought
// its last byte. No goroutine parks to read it.
//
// The handler gets one frame per Await. A receiver that only delivers
// awaits the next frame before it returns; a hop that answers awaits once
// its answer is out (Send), and a frame arriving meanwhile waits in the
// endpoint's buffer. A handler that gives up on the stream calls Stop.
// stop runs once: from Stop, or when a frame is awaited that can no
// longer come (the stream ended first, or the bytes do not cut). From
// then on the endpoint recycles what arrives unread, so it never holds
// more than one frame and the segment that completed it.
// Frames are reassembled in an array leased from the world (frameArrays)
// from the delivery that brings bytes until a handler has returned and
// every byte in it is cut: the endpoint holds one only while a frame is
// partly in. A frame it writes is built in place in another (Frame), held
// until the conn takes the frame.
type FrameConn struct {
	conn     *netem.Conn
	clock    *netem.Clock // the attached conn's, whose world lends the leases
	cut      FrameCut
	frame    func(body []byte)
	stop     func()
	buf      []byte  // buf[head:] has arrived and is not yet cut
	lease    *[]byte // buf's array while the endpoint holds one
	out      *[]byte // the array of the frame being built, from Frame until a write takes it
	head     int
	end      error // what ended the stream, once it has arrived
	awaiting bool
	handing  bool // a frame is with the handler
	stopped  bool
}

// NewFrameConn returns an endpoint that cuts frames with cut, hands each
// body to frame, valid until frame returns (a handler copies what it
// keeps: every transport's does, into a Stream's inbox, a reply or a
// frame of its own), and calls stop when an awaited frame cannot come.
// All three run in clock events and must never park; simlint's
// noparkinevent walks them from this call.
func NewFrameConn(cut FrameCut, frame func(body []byte), stop func()) *FrameConn {
	return &FrameConn{cut: cut, frame: frame, stop: stop}
}

// Attach makes the endpoint c's reader: c's segments go to Sink, a loop
// sink, so that the transport's handlers run when its read loop did,
// and the endpoint leases from c's world.
func (f *FrameConn) Attach(c *netem.Conn) {
	f.conn, f.clock = c, c.Clock()
	c.SetLoopSink(f.Sink)
}

// Conn returns the attached conn, nil before Attach.
func (f *FrameConn) Conn() *netem.Conn { return f.conn }

// Sink is the attached conn's read sink (netem.ReadSink): it copies and
// recycles each segment and hands on a frame that is awaited and now
// complete.
func (f *FrameConn) Sink(data []byte, base *[]byte, pool *sync.Pool, err error) {
	if err != nil {
		f.end = err
	} else {
		if !f.stopped {
			if f.lease == nil {
				f.lease = frameArrays.Get(f.clock)
				f.buf = *f.lease
			}
			f.buf, f.head = netem.Compact(f.buf, f.head, len(data))
			f.buf = append(f.buf, data...)
		}
		f.clock.Recycle(pool, base)
	}
	if f.awaiting {
		f.Await()
	}
}

// Await asks for the next frame: the handler gets it as soon as it has
// fully arrived, at once if it has. Called by the handler, it takes
// effect when the handler returns. Once no handler is running and every
// byte is cut, the array goes back.
func (f *FrameConn) Await() {
	f.awaiting = !f.stopped
	for f.awaiting && !f.handing {
		body, end, err := f.cut(f.buf[f.head:])
		if err == nil && end == 0 && f.end == nil {
			break
		}
		f.awaiting = false
		if err != nil || end == 0 {
			f.Stop()
			return
		}
		frame := f.buf[f.head+body : f.head+end]
		if f.head += end; f.head == len(f.buf) {
			f.buf, f.head = f.buf[:0], 0
		}
		f.handing = true
		f.frame(frame)
		f.handing = false
	}
	f.release()
}

// release hands the reassembly array back once no handler holds a frame
// in it and every byte is cut, or the endpoint has stopped.
func (f *FrameConn) release() {
	if f.lease != nil && !f.handing && (f.stopped || f.head == len(f.buf)) {
		*f.lease = f.buf[:0]
		frameArrays.Put(f.clock, f.lease)
		f.lease, f.buf, f.head = nil, nil, 0
	}
}

// Stop ends reading, as a read loop that returned did, and runs stop
// unless it has run. The reassembly array goes back at once, or, when a
// handler stops the endpoint, once it returns: the frame in its hand is
// still read from the array.
func (f *FrameConn) Stop() {
	if !f.stopped {
		f.stopped, f.awaiting = true, false
		f.release()
		f.stop()
	}
}

// Frame returns an empty array leased from the world, for the frame the
// endpoint writes next to be built in: the header appended first, then
// the body (a Stream's bytes straight from Take), then the length
// patched. The frame goes to Send or Offer, which hands the array back
// once the conn has taken it; until then Frame returns the same array.
func (f *FrameConn) Frame() []byte {
	if f.out == nil {
		f.out = frameArrays.Get(f.clock)
	}
	return (*f.out)[:0]
}

// Offer writes one frame without parking and reports whether the conn
// took it, with the error Write would have returned; a refused frame is
// the caller's to offer again. Once the conn takes it, Offer hands back
// the array Frame leased, if any: the frame must then be the one built
// in it, as its builder grew it.
func (f *FrameConn) Offer(frame []byte) (ok bool, err error) {
	if ok, err = f.conn.TryWrite(frame); ok && f.out != nil {
		*f.out = frame[:0]
		frameArrays.Put(f.clock, f.out)
		f.out = nil
	}
	return ok, err
}

// Send offers one frame (Offer) and awaits the next frame; a failed
// write stops the endpoint. It is for hops that alternate, and its write
// is never refused: each conn has one writer, each direction at most one
// frame in flight, and the receiver is a FrameConn, which drains at
// arrival. A refusal is a broken invariant and panics.
func (f *FrameConn) Send(frame []byte) {
	if ok, err := f.Offer(frame); !ok {
		panic(fmt.Sprintf("pt: a %d-byte frame to %v did not fit its conn: a second frame in flight, or a second writer", len(frame), f.conn.RemoteAddr()))
	} else if err != nil {
		f.Stop()
	} else {
		f.Await()
	}
}

// frameArrays are FrameConn's reassembly arrays and the arrays its
// writers build frames in.
var frameArrays = netem.NewBufClass("frame", func() *[]byte { return new([]byte) })

// Prefix16 cuts frames that open with their body's length as a 16-bit
// big-endian number.
func Prefix16(b []byte) (body, end int, err error) {
	if len(b) >= 2 {
		if n := 2 + int(binary.BigEndian.Uint16(b)); len(b) >= n {
			return 2, n, nil
		}
	}
	return 0, 0, nil
}

// AppendPrefix16 appends head and data to dst as one Prefix16 frame.
func AppendPrefix16(dst, head, data []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(head)+len(data)))
	return append(append(dst, head...), data...)
}
