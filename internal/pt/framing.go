package pt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
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
	net.Conn
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
}

// NewCodecConn layers codec's records over conn.
func NewCodecConn(conn net.Conn, codec RecordCodec) *RecordConn {
	return &RecordConn{Conn: conn, codec: codec}
}

// SkipFirst makes the first Read discard n bytes of the inner conn
// before the first record: a handshake flight of the peer's that the
// caller did not wait for (cloak's zero-RTT ServerHello).
func (rc *RecordConn) SkipFirst(n int) { rc.skip = n }

// readFull fills p from rc's inner conn, using the threshold path when
// available.
func (rc *RecordConn) readFull(p []byte) error {
	if fr, ok := rc.Conn.(netem.FullReader); ok {
		n, err := fr.ReadFull(p)
		if err != nil && n < len(p) {
			if n > 0 && err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		return nil
	}
	_, err := io.ReadFull(rc.Conn, p)
	return err
}

// Write chops p into records of at most the codec's maximum payload.
// A conn has one writer at a time.
func (rc *RecordConn) Write(p []byte) (int, error) {
	if rc.writing {
		panic("pt: RecordConn.Write re-entered")
	}
	rc.writing = true
	defer func() { rc.writing = false }()
	maxPayload, _, _ := rc.codec.Sizes()
	written := 0
	for len(p) > 0 {
		n := min(len(p), maxPayload)
		rc.wbuf = rc.codec.Seal(rc.wbuf[:0], p[:n])
		if _, err := rc.Conn.Write(rc.wbuf); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Read opens the next record, buffering any remainder.
func (rc *RecordConn) Read(p []byte) (int, error) {
	_, headLen, maxBody := rc.codec.Sizes()
	for len(rc.pending) == 0 {
		if rc.skip > 0 {
			rc.rbuf = slices.Grow(rc.rbuf[:0], rc.skip)
			if err := rc.readFull(rc.rbuf[:rc.skip]); err != nil {
				return 0, err
			}
			rc.skip = 0
		}
		rc.rbuf = slices.Grow(rc.rbuf[:0], headLen)
		head := rc.rbuf[:headLen]
		if err := rc.readFull(head); err != nil {
			return 0, err
		}
		n, err := rc.codec.BodyLen(head)
		if err != nil {
			return 0, err
		}
		if n < 0 || n > maxBody {
			return 0, ErrRecordTooLarge
		}
		rc.rbuf = slices.Grow(head, n) // keeps the header
		head, body := rc.rbuf[:headLen], rc.rbuf[headLen:headLen+n]
		if err := rc.readFull(body); err != nil {
			return 0, err
		}
		if rc.pending, err = rc.codec.Open(head, body); err != nil {
			return 0, err
		}
	}
	n := copy(p, rc.pending)
	rc.pending = rc.pending[n:]
	return n, nil
}

// CloseWrite forwards half-close to the inner conn.
func (rc *RecordConn) CloseWrite() error {
	if hc, ok := rc.Conn.(HalfCloser); ok {
		return hc.CloseWrite()
	}
	return rc.Conn.Close()
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
func NewRecordConn(conn net.Conn, cfg RecordConfig) (*RecordConn, error) {
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

// WriteTarget sends the stream prologue naming the server-side target.
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

// ReadTarget reads the stream prologue.
func ReadTarget(r io.Reader) (string, error) {
	var n [1]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	buf := make([]byte, n[0])
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// spliceBufPool leases each pump of a Splice its copy buffer.
var spliceBufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// Splice copies both directions between a and b and closes both when
// both directions finish. It is the one forwarding loop: PT servers and
// the conjure station call it; the pump goroutines are simulation
// goroutines on clock.
func Splice(clock *netem.Clock, a, b net.Conn) {
	wg := netem.NewWaitGroup(clock)
	cp := func(dst, src net.Conn) {
		defer wg.Done()
		bp := spliceBufPool.Get().(*[]byte)
		defer spliceBufPool.Put(bp)
		buf := *bp
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		if hc, ok := dst.(HalfCloser); ok {
			hc.CloseWrite()
		} else {
			dst.Close()
		}
	}
	wg.Add(2)
	clock.Go(func() { cp(a, b) })
	clock.Go(func() { cp(b, a) })
	wg.Wait()
	a.Close()
	b.Close()
}
