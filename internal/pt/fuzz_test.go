package pt_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/psiphon"
	"ptperf/internal/pt/shadowsocks"
)

// readTarget decodes a target prologue off data as ServeStream reads it,
// with pt.ReadPrefixed.
func readTarget(data []byte) (target string, err error) {
	c := new(bufConn)
	c.buf.Write(data)
	field, err := netem.Await(netem.NewClock(), func(done func([]byte, error)) ([]byte, error, bool) {
		return pt.ReadPrefixed(c, 1, done)
	})
	return string(field), err
}

// FuzzReadTarget: the target prologue's reader either rejects the bytes
// or returns exactly the target Prologue would have encoded.
func FuzzReadTarget(f *testing.F) {
	seed, _ := pt.Prologue("guard-0:9001")
	f.Add(seed)
	f.Add([]byte{0})
	f.Add([]byte{255, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		target, err := readTarget(data)
		if err != nil {
			return
		}
		again, err := pt.Prologue(target)
		if err != nil {
			t.Fatalf("decoded target does not encode: %v", err)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("decoded %q does not re-encode to the input", target)
		}
	})
}

// bufConn is a netem.Stream over in-memory bytes: reads drain buf,
// writes append to it. Its event forms never wait; the rest of the
// interface is never called.
type bufConn struct {
	netem.Stream
	buf bytes.Buffer
}

func (c *bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

func (c *bufConn) ReadEvent(p []byte, _ func()) (int, error, bool) {
	n, err := c.Read(p)
	return n, err, true
}

func (c *bufConn) ReadFullEvent(p []byte, _ func()) (int, error, bool) {
	n, err := io.ReadFull(c, p)
	return n, err, true
}

func (c *bufConn) WriteEvent(p []byte, _ func()) (int, error, bool) {
	n, err := c.Write(p)
	return n, err, true
}

// pipeEnd is a net.Pipe end with the event forms a RecordConn reads and
// writes its inner conn through; the pipe blocks the calling goroutine
// where a netem conn would queue again, so neither ever waits.
type pipeEnd struct{ net.Conn }

func (p pipeEnd) ReadFullEvent(b []byte, _ func()) (int, error, bool) {
	n, err := io.ReadFull(p.Conn, b)
	return n, err, true
}

func (p pipeEnd) WriteEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.Conn.Write(b)
	return n, err, true
}

func (p pipeEnd) ReadEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.Conn.Read(b)
	return n, err, true
}

func (p pipeEnd) SetReadTimeout(time.Duration) error { return nil }

// recordCodecs builds the sealing and the opening end of each record
// codec a transport installs under pt.RecordConn.
var recordCodecs = []struct {
	name string
	pair func() (seal, open pt.RecordCodec)
}{
	{"ctr", func() (pt.RecordCodec, pt.RecordCodec) {
		cfg := pt.RecordConfig{Header: []byte{0x17, 0x03, 0x03}, MaxPadding: 8, Seed: 1}
		return pt.NewRecordCodec(cfg), pt.NewRecordCodec(cfg)
	}},
	{"psiphon", func() (pt.RecordCodec, pt.RecordCodec) {
		return psiphon.NewCodec([]byte("secret"), true), psiphon.NewCodec([]byte("secret"), false)
	}},
	{"shadowsocks", func() (pt.RecordCodec, pt.RecordCodec) {
		psk, salt := []byte("psk"), []byte("0123456789abcdef")
		return shadowsocks.NewCodec(psk, salt, true), shadowsocks.NewCodec(psk, salt, false)
	}},
}

// TestRecordSizeLimits: every codec declares its largest record, and the
// shared read path holds all three to it. A full-size record opens; one
// byte more is refused with ErrRecordTooLarge before its body is read.
func TestRecordSizeLimits(t *testing.T) {
	for _, tc := range recordCodecs {
		t.Run(tc.name, func(t *testing.T) {
			seal, open := tc.pair()
			maxPayload, headerLen, maxBody := seal.Sizes()
			wire := &bufConn{}
			full := seal.Seal(nil, make([]byte, maxPayload))
			if len(full) > headerLen+maxBody {
				t.Fatalf("a full record is %d bytes, more than the declared %d+%d", len(full), headerLen, maxBody)
			}
			wire.buf.Write(full)
			over := seal.Seal(nil, make([]byte, maxPayload+1))
			wire.buf.Write(over)
			rc := pt.NewCodecConn(wire, open)
			got, err := io.ReadAll(rc)
			if len(got) != maxPayload || err != pt.ErrRecordTooLarge {
				t.Fatalf("read %d bytes, %v; want %d bytes, then %v", len(got), err, maxPayload, pt.ErrRecordTooLarge)
			}
			if left := wire.buf.Len(); left != len(over)-headerLen {
				t.Errorf("%d wire bytes left of the oversized record, want its whole %d-byte body", left, len(over)-headerLen)
			}
		})
	}
	// The padded framing also bounds the padding a record may declare.
	wire := &bufConn{}
	wire.buf.Write([]byte{0, 1, 0, 9})
	wire.buf.Write(make([]byte, 10))
	rc, err := pt.NewRecordConn(wire, pt.RecordConfig{MaxPadding: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Read(make([]byte, 16)); err != pt.ErrRecordTooLarge {
		t.Errorf("9 bytes of padding under MaxPadding 8: %v, want %v", err, pt.ErrRecordTooLarge)
	}
}

// drain reads rc to its first error: Read must fail cleanly or return
// bounded data, never panic, over-allocate or decode more payload than
// there were wire bytes.
func drain(t *testing.T, rc *pt.RecordConn, wireLen int) {
	buf := make([]byte, 4096)
	total := 0
	for {
		n, err := rc.Read(buf)
		if n < 0 || n > len(buf) {
			t.Fatalf("Read returned n=%d for a %d-byte buffer", n, len(buf))
		}
		total += n
		if err != nil {
			break
		}
		if n == 0 {
			t.Fatal("Read returned 0, nil")
		}
	}
	if total > wireLen {
		t.Fatalf("%d wire bytes decoded to %d payload bytes", wireLen, total)
	}
}

// FuzzRecordConnRead feeds arbitrary wire bytes to RecordConn under the
// padded framing in every shape: with or without padding (obfs4 pads,
// webtunnel, cloak and conjure do not), with or without a mimicry
// header.
func FuzzRecordConnRead(f *testing.F) {
	config := func(padded bool, headerLen uint8) pt.RecordConfig {
		cfg := pt.RecordConfig{Header: make([]byte, headerLen%8)}
		if padded {
			cfg.MaxPadding = 8
		}
		return cfg
	}
	for _, padded := range []bool{false, true} {
		for _, header := range []string{"", "\x17\x03\x03"} {
			cfg := config(padded, uint8(len(header)))
			cfg.Header, cfg.Seed = []byte(header), 1
			wire := &bufConn{}
			rc, err := pt.NewRecordConn(wire, cfg)
			if err != nil {
				f.Fatal(err)
			}
			rc.Write([]byte("one record"))
			rc.Write(bytes.Repeat([]byte{7}, 300))
			f.Add(wire.buf.Bytes(), padded, uint8(len(header)))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, false, uint8(0)) // oversized record
	f.Add([]byte{0, 4, 0, 0, 'x'}, true, uint8(0))         // truncated body
	f.Fuzz(func(t *testing.T, data []byte, padded bool, headerLen uint8) {
		wire := &bufConn{}
		wire.buf.Write(data)
		rc, err := pt.NewRecordConn(wire, config(padded, headerLen))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, rc, len(data))
	})
}

// fuzzCodecRead feeds arbitrary wire bytes to RecordConn under one of
// the keyed codecs, seeded with a valid record, one whose MAC or tag has
// a flipped last byte and one with a truncated body.
func fuzzCodecRead(f *testing.F, pair func() (seal, open pt.RecordCodec)) {
	seal, _ := pair()
	valid := seal.Seal(nil, []byte("one record"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 1
	f.Add(valid)
	f.Add(flipped)
	f.Add(valid[:len(valid)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		wire := &bufConn{}
		wire.buf.Write(data)
		_, open := pair()
		drain(t, pt.NewCodecConn(wire, open), len(data))
	})
}

// FuzzPsiphonRecordRead: psiphon's [4B len][payload][16B MAC] decoder.
func FuzzPsiphonRecordRead(f *testing.F) { fuzzCodecRead(f, recordCodecs[1].pair) }

// FuzzShadowsocksRecordRead: shadowsocks's [len+tag][payload+tag]
// decoder.
func FuzzShadowsocksRecordRead(f *testing.F) { fuzzCodecRead(f, recordCodecs[2].pair) }
