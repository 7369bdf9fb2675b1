// Package stegotorus implements the camouflage-proxy transport: a
// "chopper" splits the Tor stream into variable-sized blocks, sends them
// (re-orderable) over several parallel TCP connections, and hides each
// block inside innocuous HTTP cover traffic. The receiving side
// reassembles blocks by sequence number.
//
// Performance-relevant properties kept from the real system: the
// fan-out over k connections, per-block HTTP-steg overhead (headers, and
// the block as it is, zero-filled to the length of its base64 form), and
// the chopper's variable block sizes.
//
// stegotorus is an integration-set-2 transport.
package stegotorus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// chopConn provides TCP-style half close via CloseWrite, which pt.Splice
// prefers over a hard Close; this is what lets a bulk response drain
// across all fan-out conns after the origin finishes.
var _ pt.HalfCloser = (*chopConn)(nil)

// DefaultConns is the chopper's connection fan-out.
const DefaultConns = 4

// minBlock and maxBlock bound the chopper's block payload sizes.
const (
	minBlock = 128
	maxBlock = 2048
)

// Config parameterizes the transport.
type Config struct {
	// Conns overrides DefaultConns.
	Conns int
	// Seed drives block-size draws.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Conns <= 0 {
		c.Conns = DefaultConns
	}
	return c
}

// Block header inside the cover payload: [8B session][8B seq][4B len].
const blockHeader = 20

// maxCover bounds the Content-Length a cover may claim; a chopper block
// is a few KB.
const maxCover = 1 << 20

// finLen marks an end-of-stream block: its seq field carries the total
// number of data blocks sent, so the receiver can declare EOF only once
// every block (possibly arriving out of order on other conns) is in.
const finLen = 0xffffffff

// A cover is built in a scratch buffer leased until its conn has taken
// it (DESIGN.md "Buffer ownership").
var coverPool = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// coverHead is a cover's header up to its Content-Length digits, which
// "\r\n\r\n" ends.
const coverHead = "POST /images/upload HTTP/1.1\r\nHost: pics.example\r\nContent-Type: image/jpeg\r\nContent-Length: "

// errCover refuses bytes that no cover begins with.
var errCover = errors.New("stegotorus: not a cover")

// appendCover appends block's cover to b: the block as it is, then zero
// filler up to the 4⌈n/3⌉ bytes the base64 form of n bytes takes, so
// the cover has the length and Content-Length of an HTTP-steg cover.
func appendCover(b, block []byte) []byte {
	body := (len(block) + 2) / 3 * 4
	b = append(strconv.AppendInt(append(b, coverHead...), int64(body), 10), "\r\n\r\n"...)
	b = append(b, block...)
	return append(b, make([]byte, body-len(block))...)
}

// cutCover finds the cover at the head of b (a pt.FrameCut), as
// appendCover writes it: coverHead, the body's length in decimal digits
// (no leading zero, at most maxCover), "\r\n\r\n", then the body,
// which is the block and its filler. It needs more bytes while b is a
// proper prefix of a cover and refuses b at the first byte that no
// cover has there.
func cutCover(b []byte) (body, end int, err error) {
	if n := min(len(b), len(coverHead)); string(b[:n]) != coverHead[:n] {
		return 0, 0, errCover
	}
	digits := b[min(len(b), len(coverHead)):]
	i, length := 0, 0
	for ; i < len(digits) && '0' <= digits[i] && digits[i] <= '9'; i++ {
		if i > 0 && length == 0 {
			return 0, 0, errCover // a leading zero
		}
		if length = length*10 + int(digits[i]-'0'); length > maxCover {
			return 0, 0, errCover
		}
	}
	tail := digits[i:]
	if n := min(len(tail), 4); n > 0 && (i == 0 || string(tail[:n]) != "\r\n\r\n"[:n]) {
		return 0, 0, errCover
	}
	body = len(coverHead) + i + 4
	if len(b) < body+length {
		return 0, 0, nil
	}
	return body, body + length, nil
}

// blockOf is the block at the head of a cover's body, read in place: its
// header and the payload the header declares, none for a FIN block. A
// body shorter than a header, or than the payload it declares, holds no
// block.
func blockOf(body []byte) ([]byte, error) {
	if len(body) < blockHeader {
		return nil, errors.New("stegotorus: cover shorter than a block header")
	}
	n := binary.BigEndian.Uint32(body[16:20])
	if n == finLen {
		return body[:blockHeader], nil
	}
	if int64(n) > int64(len(body)-blockHeader) {
		return nil, errors.New("stegotorus: cover shorter than its block")
	}
	return body[:blockHeader+int(n)], nil
}

// chopConn is one endpoint of the chopped stream: it writes blocks
// round-robin over the fan-out conns, and its read half reassembles the
// peer's blocks by sequence number.
type chopConn struct {
	*pt.Stream
	cfg   Config
	sid   uint64
	conns []netem.Stream
	// werrs holds each conn's first write error. A conn that failed a
	// write is never written again: a write to a dead conn still passes
	// the censor's segment filter, which counts it.
	werrs []error

	sendSeq uint64
	rrIndex int
	rng     *rand.Rand
	// wblock holds the block being chopped, which send has covered
	// before it parks; writing refuses a second, interleaving writer.
	wblock  []byte
	writing bool
	// A write keeps the cover its conn has not taken whole (an event
	// write across its waits): a coverPool lease, sent bytes of it to
	// conns[to]; fins counts the conns CloseWriteEvent has ended.
	cover     *[]byte
	to, sent  int
	block     int // the payload bytes of the cover under way
	fins      int
	finishing bool
	finErr    error // CloseWrite's: the first conn's write error
	// closed is "Close was called here". The stream's own Closed is
	// also true once every reader has gone (the peer half-closed all
	// its conns), and writes must still go out then.
	closed bool

	readers int
}

func newChopConn(clock *netem.Clock, cfg Config, sid uint64, conns []netem.Stream, seed int64) *chopConn {
	c := &chopConn{
		Stream:  pt.NewStream(clock, "steg", "stegotorus", "stegotorus-peer", 0),
		cfg:     cfg,
		sid:     sid,
		conns:   conns,
		werrs:   make([]error, len(conns)),
		rng:     sim.NewRand(seed),
		readers: len(conns),
	}
	for _, conn := range conns {
		r := &fanIn{c: c}
		r.in = pt.NewFrameConn(cutCover, r.cover, r.stop)
		r.in.Attach(conn.(*netem.Conn))
		r.in.Await()
	}
	return c
}

// fanIn reads the covers of one fan-out conn. One conn ending does not
// end the session, as blocks may still be in flight on the others: the
// session ends when the FIN accounting completes or every fan-out conn
// has stopped.
type fanIn struct {
	c  *chopConn
	in *pt.FrameConn
}

// cover takes one cover's body: a data block goes into the stream by its
// sequence number, a FIN block announces the count of them, and a cover
// that holds no block stops the conn.
func (r *fanIn) cover(body []byte) {
	block, err := blockOf(body)
	if err != nil {
		r.in.Stop()
		return
	}
	seq := binary.BigEndian.Uint64(block[8:16])
	if binary.BigEndian.Uint32(block[16:20]) == finLen {
		r.c.PeerFin(seq)
	} else {
		r.c.DeliverSeq(seq, block[blockHeader:])
	}
	r.in.Await()
}

// stop is the conn's end of reading; the last one fails the session.
func (r *fanIn) stop() {
	if r.c.readers--; r.c.readers == 0 {
		r.c.Fail()
	}
}

// startCover leases the cover of block, bound for conn i.
func (c *chopConn) startCover(i int, block []byte) {
	c.cover = coverPool.Get().(*[]byte)
	*c.cover = appendCover((*c.cover)[:0], block)
	c.to, c.sent = i, 0
}

// flushCover writes the cover under way to its conn and returns the
// lease once the conn has taken it all; done false means again goes on.
// A conn that failed a write is never written again.
func (c *chopConn) flushCover(again func()) (err error, done bool) {
	k, err, done := c.conns[c.to].WriteEvent((*c.cover)[c.sent:], again)
	if c.sent += k; !done {
		return nil, false
	}
	coverPool.Put(c.cover)
	c.cover, c.werrs[c.to] = nil, err
	return err, true
}

// CloseWrite flushes a FIN block announcing the total block count, so
// the peer can drain every fan-out conn before reporting EOF.
func (c *chopConn) CloseWrite() error {
	c.CloseWriteEvent(nil)
	return c.finErr
}

// CloseWriteEvent is CloseWrite for an event callback, or CloseWrite
// itself for a nil again: the FIN's covers go out with flushCover, and
// done false means again goes on.
func (c *chopConn) CloseWriteEvent(again func()) bool {
	if !c.finishing {
		if c.closed || c.WriteEnded() {
			c.finErr = nil
			return true
		}
		c.EndWrite()
		c.wblock = binary.BigEndian.AppendUint64(c.wblock[:0], c.sid)
		c.wblock = binary.BigEndian.AppendUint64(c.wblock, c.sendSeq)
		c.wblock = binary.BigEndian.AppendUint32(c.wblock, finLen)
		c.finishing, c.fins, c.finErr = true, 0, nil
	}
	// Every conn carries the FIN: whichever the receiver reads first
	// sets the accounting, and per-conn half-close lets readers drain.
	for ; c.fins < len(c.conns); c.fins++ {
		if c.cover == nil && c.werrs[c.fins] == nil {
			c.startCover(c.fins, c.wblock)
		}
		if c.cover != nil {
			if _, done := c.flushCover(again); !done {
				return false
			}
		}
		if c.finErr == nil {
			c.finErr = c.werrs[c.fins]
		}
		if hc, ok := c.conns[c.fins].(pt.HalfCloser); ok {
			hc.CloseWrite()
		}
	}
	c.finishing = false
	return true
}

// Write chops p into blocks and spreads them over the conns. A conn has
// one writer at a time.
func (c *chopConn) Write(p []byte) (int, error) {
	n, err, _ := c.WriteEvent(p, nil)
	return n, err
}

// WriteEvent is Write for an event callback, with the contract of
// netem.Conn.WriteEvent, or Write itself for a nil again: each block is
// drawn and covered where Write does it, and a cover its conn has not
// taken whole stays under way, its block counted in n.
func (c *chopConn) WriteEvent(p []byte, again func()) (n int, err error, done bool) {
	if c.cover == nil || again == nil {
		if c.closed || c.WriteEnded() {
			return 0, errors.New("stegotorus: closed"), true
		}
		if c.writing {
			panic("stegotorus: chopConn.Write re-entered")
		}
	}
	c.writing = true
	for {
		if c.cover != nil {
			if err, done := c.flushCover(again); !done {
				return n, nil, false
			} else if err != nil {
				c.writing = false
				return max(n-c.block, 0), err, true
			}
		}
		if len(p) == 0 {
			c.writing = false
			return n, nil, true
		}
		c.block = min(minBlock+c.rng.Intn(maxBlock-minBlock), len(p))
		block := binary.BigEndian.AppendUint64(c.wblock[:0], c.sid)
		block = binary.BigEndian.AppendUint64(block, c.sendSeq)
		block = binary.BigEndian.AppendUint32(block, uint32(c.block))
		c.wblock = append(block, p[:c.block]...)
		c.sendSeq++

		idx := c.rrIndex % len(c.conns)
		c.rrIndex++
		if err := c.werrs[idx]; err != nil {
			c.writing = false
			return n, err, true
		}
		c.startCover(idx, c.wblock)
		n += c.block
		p = p[c.block:]
	}
}

// Close implements netem.Stream.
func (c *chopConn) Close() error {
	c.closed = true
	c.Fail()
	for _, conn := range c.conns {
		conn.Close()
	}
	return nil
}

// Server is the stegotorus server.
type Server struct {
	cfg    Config
	ln     *netem.Listener
	clock  *netem.Clock
	handle pt.StreamHandler
	// pending gathers each session's fan-out conns until all arrive; a
	// fan-out whose last conn never comes goes stale and is closed.
	pending *pt.Sessions[uint64, *fanOut]

	nextSeed int64
}

// fanOut is a session's conns so far.
type fanOut struct {
	conns []netem.Stream
	want  int
	// abandoned turns away a conn that arrives after the rest were
	// closed.
	abandoned bool
}

// StartServer runs a stegotorus server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (*Server, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg.withDefaults(),
		ln:       ln,
		clock:    host.Network().Clock(),
		handle:   handle,
		nextSeed: cfg.Seed + 11,
	}
	s.pending = pt.NewSessions(s.clock, func(uint64) *fanOut { return new(fanOut) }, s.abandon)
	ln.Serve(s.serveConn)
	return s, nil
}

// Addr returns the server's contact address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// abandon closes the conns of a fan-out that never completed.
func (s *Server) abandon(f *fanOut) {
	conns := f.conns
	f.conns = nil
	f.abandoned = true
	for _, c := range conns {
		c.Close()
	}
}

// serveConn reads one fan-out conn's preamble, [8B session][1B index]
// [1B total], and serves the session once its last conn is in.
func (s *Server) serveConn(c *netem.Conn) {
	pre := make([]byte, 10)
	pt.ReadFullEvent(c, pre, func(err error) {
		if err != nil {
			c.Close()
			return
		}
		s.join(c, binary.BigEndian.Uint64(pre[:8]), int(pre[9]))
	})
}

// join adds c to session sid's fan-out of total conns.
func (s *Server) join(c *netem.Conn, sid uint64, total int) {
	if total <= 0 || total > 16 {
		c.Close()
		return
	}
	f := s.pending.Touch(sid)
	if f.abandoned {
		c.Close()
		return
	}
	if f.want == 0 {
		f.want = total
	}
	f.conns = append(f.conns, c)
	conns := f.conns
	ready := len(conns) == f.want
	if ready {
		f.conns = nil
		s.nextSeed++
	}
	seed := s.nextSeed
	if !ready {
		return
	}
	s.pending.Remove(sid)
	cc := newChopConn(s.clock, s.cfg, sid, conns, seed)
	pt.ServeStream(cc, s.handle)
}

// Dialer is the stegotorus client.
type Dialer struct {
	cfg  Config
	host *netem.Host
	addr string

	next uint64
}

// NewDialer returns a stegotorus client for a server at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) *Dialer {
	return &Dialer{cfg: cfg.withDefaults(), host: host, addr: addr, next: uint64(cfg.Seed)*0x9e3779b9 + 7}
}

// Dial implements pt.Dialer: open the fan-out, announce the session on
// every conn, then chop.
func (d *Dialer) Dial(target string) (netem.Stream, error) {
	d.next++
	sid := d.next
	seed := int64(d.next) + d.cfg.Seed

	conns := make([]netem.Stream, 0, d.cfg.Conns)
	for i := 0; i < d.cfg.Conns; i++ {
		c, err := d.host.Dial(d.addr)
		if err != nil {
			for _, cc := range conns {
				cc.Close()
			}
			return nil, fmt.Errorf("stegotorus: %w", err)
		}
		var pre [10]byte
		binary.BigEndian.PutUint64(pre[:8], sid)
		pre[8] = byte(i)
		pre[9] = byte(d.cfg.Conns)
		if _, err := c.Write(pre[:]); err != nil {
			c.Close()
			for _, cc := range conns {
				cc.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	cc := newChopConn(d.host.Network().Clock(), d.cfg, sid, conns, seed)
	if err := pt.WriteTarget(cc, target); err != nil {
		cc.Close()
		return nil, err
	}
	return cc, nil
}
