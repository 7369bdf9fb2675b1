package pt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"

	"ptperf/internal/netem"
)

// MaxRecord is the largest payload carried in one framed record.
const MaxRecord = 16 << 10

// ErrRecordTooLarge reports an oversized inbound record.
var ErrRecordTooLarge = errors.New("pt: record exceeds maximum size")

// RecordConn wraps a net.Conn with a length-prefixed record layer,
// optional stream encryption and optional random padding — the common
// skeleton of obfs4, webtunnel, cloak and psiphon style transports.
type RecordConn struct {
	net.Conn
	// enc/dec are optional stream ciphers applied to record bodies.
	enc, dec cipher.Stream
	// header prepends extra fixed bytes before each record's length
	// (e.g. a TLS record type+version for mimicry).
	header []byte
	// maxPad adds 0..maxPad random padding bytes per record, declared
	// in the frame so the receiver can strip them (length obfuscation).
	maxPad int
	rng    *rand.Rand

	pending []byte
	// rbuf is the reused record read buffer; pending aliases it, and it
	// is only overwritten once pending has drained.
	rbuf []byte
}

// fullReader is the threshold-read fast path netem conns provide: fill
// p completely, parking once at the completing byte's arrival instead
// of waking for every segment of a multi-segment record.
type fullReader interface {
	ReadFull(p []byte) (int, error)
}

// readFull fills p from rc's inner conn, using the threshold path when
// available.
func (rc *RecordConn) readFull(p []byte) error {
	if fr, ok := rc.Conn.(fullReader); ok {
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

// RecordConfig configures a RecordConn.
type RecordConfig struct {
	// Key enables AES-CTR record encryption when non-empty; both ends
	// derive directional keys from it.
	Key []byte
	// IsClient distinguishes the two key directions.
	IsClient bool
	// Header prepends these bytes to every record (mimicry cosmetics).
	Header []byte
	// MaxPadding adds up to this many random bytes per record.
	MaxPadding int
	// Seed drives padding draws.
	Seed int64
}

// NewRecordConn wraps conn.
func NewRecordConn(conn net.Conn, cfg RecordConfig) (*RecordConn, error) {
	rc := &RecordConn{
		Conn:   conn,
		header: append([]byte(nil), cfg.Header...),
		maxPad: cfg.MaxPadding,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if len(cfg.Key) > 0 {
		mk := func(label string) (cipher.Stream, error) {
			sum := sha256.Sum256(append([]byte(label), cfg.Key...))
			block, err := aes.NewCipher(sum[:16])
			if err != nil {
				return nil, err
			}
			return cipher.NewCTR(block, sum[16:32]), nil
		}
		c2s, err := mk("client->server")
		if err != nil {
			return nil, err
		}
		s2c, err := mk("server->client")
		if err != nil {
			return nil, err
		}
		if cfg.IsClient {
			rc.enc, rc.dec = c2s, s2c
		} else {
			rc.enc, rc.dec = s2c, c2s
		}
	}
	return rc, nil
}

// Write frames p into records: header || len(2) || padLen(2) || body ||
// padding, with the body (and pad) optionally encrypted.
func (rc *RecordConn) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > MaxRecord {
			n = MaxRecord
		}
		pad := 0
		if rc.maxPad > 0 {
			pad = rc.rng.Intn(rc.maxPad + 1)
		}
		frame := make([]byte, len(rc.header)+4+n+pad)
		copy(frame, rc.header)
		binary.BigEndian.PutUint16(frame[len(rc.header):], uint16(n))
		binary.BigEndian.PutUint16(frame[len(rc.header)+2:], uint16(pad))
		body := frame[len(rc.header)+4:]
		copy(body, p[:n])
		for i := n; i < n+pad; i++ {
			body[i] = byte(rc.rng.Intn(256))
		}
		if rc.enc != nil {
			rc.enc.XORKeyStream(body, body)
		}
		if _, err := rc.Conn.Write(frame); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Read unframes the next record, buffering any remainder.
func (rc *RecordConn) Read(p []byte) (int, error) {
	for len(rc.pending) == 0 {
		headLen := len(rc.header) + 4
		if cap(rc.rbuf) < headLen {
			rc.rbuf = make([]byte, MaxRecord+headLen)
		}
		head := rc.rbuf[:headLen]
		if err := rc.readFull(head); err != nil {
			return 0, err
		}
		n := int(binary.BigEndian.Uint16(head[len(rc.header):]))
		pad := int(binary.BigEndian.Uint16(head[len(rc.header)+2:]))
		if n > MaxRecord {
			return 0, ErrRecordTooLarge
		}
		if cap(rc.rbuf) < n+pad {
			rc.rbuf = make([]byte, n+pad)
		}
		body := rc.rbuf[:n+pad]
		if err := rc.readFull(body); err != nil {
			return 0, err
		}
		if rc.dec != nil {
			rc.dec.XORKeyStream(body, body)
		}
		rc.pending = body[:n]
	}
	n := copy(p, rc.pending)
	rc.pending = rc.pending[n:]
	return n, nil
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

// Splice copies both directions between a and b and closes both when
// both directions finish. It is the standard PT-server forwarding loop;
// the pump goroutines are simulation goroutines on clock.
func Splice(clock *netem.Clock, a, b net.Conn) {
	wg := netem.NewWaitGroup(clock)
	cp := func(dst, src net.Conn) {
		defer wg.Done()
		buf := make([]byte, 32<<10)
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
		if cw, ok := dst.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
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

// HalfCloser is implemented by conns supporting TCP-style half close.
type HalfCloser interface {
	CloseWrite() error
}

// CloseWrite forwards half-close through a RecordConn.
func (rc *RecordConn) CloseWrite() error {
	if hc, ok := rc.Conn.(HalfCloser); ok {
		return hc.CloseWrite()
	}
	return rc.Conn.Close()
}
