package pt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"sync"

	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// MaxRecord is the largest payload carried in one framed record.
const MaxRecord = 16 << 10

// ErrRecordTooLarge reports an inbound record whose header declares
// more bytes than its codec ever seals.
var ErrRecordTooLarge = errors.New("pt: record exceeds maximum size")

// RecordCodec is what a record-framed transport keeps of its own: the
// wire shape of one record. RecordConn owns everything around it.
type RecordCodec interface {
	// Sizes returns the most payload bytes one record carries, the
	// fixed length of a record header and the most bytes that can
	// follow a header.
	Sizes() (maxPayload, headerLen, maxBody int)
	// Seal appends the wire record carrying payload to dst, which may
	// hold anything past its length, and returns the extended slice.
	Seal(dst, payload []byte) []byte
	// BodyLen decodes a record header into the number of bytes that
	// follow it; RecordConn refuses more than maxBody of them.
	BodyLen(header []byte) (int, error)
	// Open decodes a whole record into its payload, which may alias
	// body.
	Open(header, body []byte) ([]byte, error)
}

// RecordConn is the one record-framed conn: it chops writes into
// records sealed in a buffer it keeps, reads whole records through the
// netem threshold path into another, keeps the unread remainder, refuses
// a record longer than its codec's maximum and forwards half-close.
// What a record looks like on the wire is the codec's business.
type RecordConn struct {
	netem.Stream
	codec RecordCodec
	// skip bytes of the inner conn precede the first record; the first
	// Read discards them (see SkipFirst).
	skip int

	// wbuf holds the record being written. The inner Write copies it
	// before returning, so it is free again for the next record; two
	// writers parked in the inner Write would share it, hence writing.
	wbuf    []byte
	writing bool

	pending []byte
	// rbuf is the reused record read buffer, grown to the largest
	// record read so far; pending aliases it, and it is only
	// overwritten once pending has drained.
	rbuf []byte
	// A read keeps its place across an event read's waits:
	// rbuf[:want] is the unit being read — the skipped flight, a header,
	// or a header and its body — and got bytes of it are in.
	unit      recordUnit
	want, got int

	// A write keeps the record it has sealed, payload bytes of p, until
	// the inner conn takes all of it: sent bytes of wbuf so far.
	sealed        bool
	sent, payload int
}

// recordUnit is the unit RecordConn.open is reading.
type recordUnit uint8

const (
	unitNone recordUnit = iota
	unitSkip
	unitHead
	unitBody
)

// NewCodecConn layers codec's records over conn.
func NewCodecConn(conn netem.Stream, codec RecordCodec) *RecordConn {
	return &RecordConn{Stream: conn, codec: codec}
}

// SkipFirst makes the first Read discard n bytes of the inner conn
// before the first record: a handshake flight of the peer's that the
// caller did not wait for (cloak's zero-RTT ServerHello).
func (rc *RecordConn) SkipFirst(n int) { rc.skip = n }

// fullEventReader is the event form of netem.FullReader, which every
// conn a RecordConn wraps has.
type fullEventReader interface {
	ReadFullEvent(p []byte, again func()) (n int, err error, done bool)
}

// fill reads the rest of the unit into rbuf[got:want] through the inner
// conn's threshold path: its ReadFull for a nil again, and for an event
// read its event form, where done false means again will fill on.
func (rc *RecordConn) fill(again func()) (err error, done bool) {
	n, err, done := rc.Stream.(fullEventReader).ReadFullEvent(rc.rbuf[rc.got:rc.want], again)
	if rc.got += n; !done {
		return nil, false
	}
	if err != nil && rc.got < rc.want {
		start := 0
		if rc.unit == unitBody {
			_, start, _ = rc.codec.Sizes()
		}
		if rc.got > start && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		rc.unit = unitNone
		return err, true
	}
	return nil, true
}

// Write chops p into records of at most the codec's maximum payload.
// A conn has one writer at a time.
func (rc *RecordConn) Write(p []byte) (int, error) {
	n, err, _ := rc.WriteEvent(p, nil)
	return n, err
}

// WriteEvent is Write for an event callback (netem.Conn.WriteEvent has
// the contract; a nil again makes it Write): each record is sealed where
// Write seals it and handed to the inner conn's WriteEvent, and a record
// the inner conn has not taken whole waits in wbuf, its payload counted
// in n, for again's call with p[n:].
func (rc *RecordConn) WriteEvent(p []byte, again func()) (n int, err error, done bool) {
	if rc.writing && (again == nil || !rc.sealed) {
		panic("pt: RecordConn.Write re-entered") // only an event write resumes
	}
	rc.writing = true
	maxPayload, _, _ := rc.codec.Sizes()
	for {
		if rc.sealed {
			k, err, done := rc.Stream.WriteEvent(rc.wbuf[rc.sent:], again)
			if rc.sent += k; !done {
				return n, nil, false
			}
			rc.sealed = false
			if err != nil {
				rc.writing = false
				return max(n-rc.payload, 0), err, true
			}
		}
		if len(p) == 0 {
			rc.writing = false
			return n, nil, true
		}
		k := min(len(p), maxPayload)
		rc.wbuf = rc.codec.Seal(rc.wbuf[:0], p[:k])
		rc.sealed, rc.sent, rc.payload = true, 0, k
		n += k
		p = p[k:]
	}
}

// Read opens the next record, buffering any remainder.
func (rc *RecordConn) Read(p []byte) (int, error) {
	n, err, _ := rc.ReadEvent(p, nil)
	return n, err
}

// ReadEvent is Read for an event callback (netem.Conn.ReadEvent has the
// contract), or Read itself for a nil again: the inner conn's threshold
// reads become its ReadFullEvent, and the record's place is kept across
// their waits.
func (rc *RecordConn) ReadEvent(p []byte, again func()) (n int, err error, done bool) {
	if err, done = rc.open(again); err != nil || !done {
		return 0, err, done
	}
	n = copy(p, rc.pending)
	rc.pending = rc.pending[n:]
	return n, nil, true
}

// open reads records until one opens to a payload, unless one is
// pending; done false means again goes on.
func (rc *RecordConn) open(again func()) (err error, done bool) {
	_, headLen, maxBody := rc.codec.Sizes()
	for len(rc.pending) == 0 {
		if rc.unit == unitNone {
			rc.unit, rc.want, rc.got = unitHead, headLen, 0
			if rc.skip > 0 {
				rc.unit, rc.want = unitSkip, rc.skip
			}
			rc.rbuf = slices.Grow(rc.rbuf[:0], rc.want)
		}
		if err, done := rc.fill(again); !done {
			return nil, false
		} else if err != nil {
			return err, true
		}
		switch rc.unit {
		case unitSkip:
			rc.skip, rc.unit = 0, unitNone
		case unitHead:
			n, err := rc.codec.BodyLen(rc.rbuf[:headLen])
			if err == nil && (n < 0 || n > maxBody) {
				err = ErrRecordTooLarge
			}
			if err != nil {
				rc.unit = unitNone
				return err, true
			}
			rc.rbuf = slices.Grow(rc.rbuf[:headLen], n) // keeps the header
			rc.unit, rc.want = unitBody, headLen+n
		case unitBody:
			rc.unit = unitNone
			var err error
			if rc.pending, err = rc.codec.Open(rc.rbuf[:headLen], rc.rbuf[headLen:rc.want]); err != nil {
				return err, true
			}
		}
	}
	return nil, true
}

// CloseWrite forwards half-close to the inner conn.
func (rc *RecordConn) CloseWrite() error {
	if hc, ok := rc.Stream.(HalfCloser); ok {
		return hc.CloseWrite()
	}
	return rc.Stream.Close()
}

// HalfCloser is implemented by conns supporting TCP-style half close.
type HalfCloser interface {
	CloseWrite() error
}

// RandFill fills b with bytes drawn from rng, eight per Uint64 draw.
func RandFill(rng *rand.Rand, b []byte) {
	var word [8]byte
	for len(b) > 0 {
		binary.LittleEndian.PutUint64(word[:], rng.Uint64())
		b = b[copy(b, word[:]):]
	}
}

// castagnoli is the CRC-32C table; crc32.Update takes its hardware path
// for this table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Tag is the one keyed check of the wrapping transports, on the recipe
// of a relay cell's digest (DESIGN.md "What the simulated crypto is
// for"): CRC-32C seeded with a key over counter ‖ data, its four bytes
// repeated to the length of the field it fills. It hides nothing. The
// CRC is affine in its seed over a fixed-length message, so each of
// these alone is refused every time: data tagged under another key at
// the same counter, a counter that differs only in its low 32 bits, and
// a burst of up to 32 flipped bits.
type Tag struct {
	key uint32
	// ctr holds the counter's bytes for crc32.Update. It lives here
	// because an array on the stack escapes through that call: one
	// allocation per tag.
	ctr [8]byte
}

// NewTag keys a Tag from a secret given in parts: the key is the tag,
// under key 0 at counter 0, of label ‖ parts.
func NewTag(label string, secret ...[]byte) Tag {
	var t Tag
	k := t.sum(0, []byte(label))
	for _, p := range secret {
		k = crc32.Update(k, castagnoli, p)
	}
	t.key = k
	return t
}

func (t *Tag) sum(ctr uint64, data []byte) uint32 {
	binary.BigEndian.PutUint64(t.ctr[:], ctr)
	return crc32.Update(crc32.Update(t.key, castagnoli, t.ctr[:]), castagnoli, data)
}

// Put fills field with the tag of ctr ‖ data.
func (t *Tag) Put(field []byte, ctr uint64, data []byte) {
	s := t.sum(ctr, data)
	for i := range field {
		field[i] = byte(s >> (24 - 8*(i%4)))
	}
}

// Check reports whether field holds the tag of ctr ‖ data.
func (t *Tag) Check(field []byte, ctr uint64, data []byte) bool {
	s := t.sum(ctr, data)
	for i, b := range field {
		if b != byte(s>>(24-8*(i%4))) {
			return false
		}
	}
	return true
}

// RecordConfig configures the framing NewRecordConn installs.
type RecordConfig struct {
	// Key and IsClient are read by nothing: the records carry no
	// cipher. The benchmark's record probe still sets them; the
	// benchmark change of ROADMAP item A removes them.
	Key      []byte
	IsClient bool
	// Header prepends these bytes to every record (mimicry cosmetics).
	Header []byte
	// MaxPadding adds up to this many random bytes per record, and is
	// the most an inbound record may declare.
	MaxPadding int
	// Seed drives padding draws.
	Seed int64
}

// ctrCodec frames header ‖ len(2) ‖ padLen(2) ‖ body ‖ padding, body and
// padding sent as they are, with the padding length declared so the
// receiver can strip it: the common record shape of obfs4, webtunnel,
// cloak and conjure.
type ctrCodec struct {
	header []byte
	maxPad int
	rng    *rand.Rand // padding lengths and bytes
}

// NewRecordConn wraps conn in the padded framing. The error is always
// nil; the benchmark probes fix the signature.
func NewRecordConn(conn netem.Stream, cfg RecordConfig) (*RecordConn, error) {
	return NewCodecConn(conn, NewRecordCodec(cfg)), nil
}

// NewRecordCodec returns the padded codec cfg describes.
func NewRecordCodec(cfg RecordConfig) RecordCodec {
	return &ctrCodec{
		header: append([]byte(nil), cfg.Header...),
		maxPad: cfg.MaxPadding,
		rng:    sim.NewRand(cfg.Seed),
	}
}

func (c *ctrCodec) Sizes() (maxPayload, headerLen, maxBody int) {
	return MaxRecord, len(c.header) + 4, MaxRecord + c.maxPad
}

func (c *ctrCodec) Seal(dst, payload []byte) []byte {
	n, pad := len(payload), 0
	if c.maxPad > 0 {
		pad = c.rng.Intn(c.maxPad + 1)
	}
	dst = append(dst, c.header...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	dst = binary.BigEndian.AppendUint16(dst, uint16(pad))
	dst = append(dst, payload...)
	dst = slices.Grow(dst, pad)[:len(dst)+pad]
	RandFill(c.rng, dst[len(dst)-pad:])
	return dst
}

func (c *ctrCodec) BodyLen(header []byte) (int, error) {
	n := int(binary.BigEndian.Uint16(header[len(c.header):]))
	pad := int(binary.BigEndian.Uint16(header[len(c.header)+2:]))
	if n > MaxRecord || pad > c.maxPad {
		return 0, ErrRecordTooLarge // each of the two has its own bound
	}
	return n + pad, nil
}

func (c *ctrCodec) Open(header, body []byte) ([]byte, error) {
	return body[:binary.BigEndian.Uint16(header[len(c.header):])], nil
}

// WriteTarget sends the stream prologue naming the server-side target:
// its length byte, then the target, which ServeStream reads.
func WriteTarget(w io.Writer, target string) error {
	if len(target) > 255 {
		return fmt.Errorf("pt: target too long")
	}
	buf := make([]byte, 1+len(target))
	buf[0] = byte(len(target))
	copy(buf[1:], target)
	_, err := w.Write(buf)
	return err
}

// Event forms of a conn's Close and CloseWrite, with the contract of
// netem.EventWriter's: an eventCloser's Close, or an eventHalfCloser's
// CloseWrite, can park, since it writes a closing frame.
type (
	eventCloser interface {
		CloseEvent(again func()) (done bool)
	}
	eventHalfCloser interface {
		CloseWriteEvent(again func()) (done bool)
	}
)

// spliceBuf is what one read of a pump asks for.
const spliceBuf = 32 << 10

// pumpBufPool leases a pump the buffer its reads copy into while data
// flows: a pump that waits for its source, or has ended, holds none.
var pumpBufPool = sync.Pool{New: func() any { b := make([]byte, spliceBuf); return &b }}

// Splice forwards both directions between a and b, half-closes each
// destination when its source ends, and closes both when both have
// ended. It is the one forwarding path: PT servers, the conjure station
// and the snowflake proxies call it. It returns at once, and nothing of
// it parks: each direction is a pump, a chain of clock events that
// issues exactly the calls a copy loop on a goroutine of its own made —
// a Read of up to 32 KiB, a Write of what it returned, and so on —
// where and when that loop made them. Where the loop parked, the pump
// leaves its continuation in the parked goroutine's place (the event
// forms above; netem.Cond.WaitEvent), so every Write, every freed
// receive window and every close happens at the virtual instant and in
// the run-queue position it did, and a destination that is full leaves
// its source unread.
func Splice(clock *netem.Clock, a, b netem.Stream) {
	s := &splice{clock: clock, ends: [2]netem.Stream{a, b}, live: 2}
	s.closeFn = s.closeBoth
	// The loop's two goroutines started from the run queue, a's pump
	// first.
	for i, dst := range s.ends {
		p := &s.pumps[i]
		p.s, p.src, p.dst = s, s.ends[1-i], dst
		p.next = p.run
		clock.ReadyEvent(p.next)
	}
}

// splice is one Splice's state: its two pumps, and the close of both
// ends once both have finished.
type splice struct {
	clock   *netem.Clock
	ends    [2]netem.Stream
	pumps   [2]pump
	live    int // pumps not yet finished
	closed  int // ends closed so far
	closeFn func()
}

// pump copies src into dst as the loop did.
type pump struct {
	s        *splice
	src, dst netem.Stream
	// out[off:] was read into buf, a pumpBufPool lease, and not yet
	// written; rerr ended the source.
	out              []byte
	buf              *[]byte
	off              int
	rerr             error
	writing, closing bool
	next             func() // run, bound once
}

// run goes on from where the pump last waited: reading, writing what it
// read, or half-closing dst once the source has ended or dst has failed.
func (p *pump) run() {
	for {
		switch {
		case p.closing:
			p.release()
			if !halfClose(p.dst, p.next) {
				return
			}
			// The loop's deferred WaitGroup.Done readied Splice's caller.
			if p.s.live--; p.s.live == 0 {
				p.s.clock.ReadyEvent(p.s.closeFn)
			}
			return
		case p.writing:
			k, err, done := p.dst.WriteEvent(p.out[p.off:], p.next)
			if p.off += k; !done {
				return
			}
			p.writing = false
			p.closing = err != nil || p.rerr != nil
		default:
			if p.buf == nil {
				p.buf = pumpBufPool.Get().(*[]byte)
			}
			n, err, done := p.src.ReadEvent(*p.buf, p.next)
			p.out, p.off, p.rerr = (*p.buf)[:n], 0, err
			p.writing = done && n > 0
			if !p.writing {
				p.release()
			}
			if !done {
				return
			}
			p.closing = !p.writing && err != nil
		}
	}
}

// release returns the pump's buffer lease, if it holds one.
func (p *pump) release() {
	if p.buf != nil {
		pumpBufPool.Put(p.buf)
		p.buf = nil
	}
}

// halfClose ends dst's sending direction as the loop did: CloseWrite
// where dst has it, Close otherwise.
func halfClose(dst netem.Stream, again func()) bool {
	if hc, ok := dst.(eventHalfCloser); ok {
		return hc.CloseWriteEvent(again)
	}
	if hc, ok := dst.(HalfCloser); ok {
		hc.CloseWrite()
		return true
	}
	return closeEnd(dst, again)
}

// closeEnd closes c, through its event form where its Close can park.
func closeEnd(c netem.Stream, again func()) bool {
	if ec, ok := c.(eventCloser); ok {
		return ec.CloseEvent(again)
	}
	c.Close()
	return true
}

// closeBoth closes a, then b, as Splice's caller did once both pumps
// had finished.
func (s *splice) closeBoth() {
	for ; s.closed < len(s.ends); s.closed++ {
		if !closeEnd(s.ends[s.closed], s.closeFn) {
			return
		}
	}
}
