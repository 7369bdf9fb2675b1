package pt_test

import (
	"bytes"
	"io"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/psiphon"
	"ptperf/internal/pt/shadowsocks"
	"ptperf/internal/testkit/streamtest"
)

// readTarget decodes a target prologue off data as ServeStream reads it,
// with pt.ReadPrefixed.
func readTarget(data []byte) (target string, err error) {
	c := streamtest.Plain(bytes.NewBuffer(data))
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
			var wire bytes.Buffer
			full := seal.Seal(nil, make([]byte, maxPayload))
			if len(full) > headerLen+maxBody {
				t.Fatalf("a full record is %d bytes, more than the declared %d+%d", len(full), headerLen, maxBody)
			}
			wire.Write(full)
			over := seal.Seal(nil, make([]byte, maxPayload+1))
			wire.Write(over)
			rc := pt.NewCodecConn(streamtest.Plain(&wire), open)
			got, err := io.ReadAll(rc)
			if len(got) != maxPayload || err != pt.ErrRecordTooLarge {
				t.Fatalf("read %d bytes, %v; want %d bytes, then %v", len(got), err, maxPayload, pt.ErrRecordTooLarge)
			}
			if left := wire.Len(); left != len(over)-headerLen {
				t.Errorf("%d wire bytes left of the oversized record, want its whole %d-byte body", left, len(over)-headerLen)
			}
		})
	}
	// The padded framing also bounds the padding a record may declare.
	var wire bytes.Buffer
	wire.Write([]byte{0, 1, 0, 9})
	wire.Write(make([]byte, 10))
	rc, err := pt.NewRecordConn(streamtest.Plain(&wire), pt.RecordConfig{MaxPadding: 8})
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
			var wire bytes.Buffer
			rc, err := pt.NewRecordConn(streamtest.Plain(&wire), cfg)
			if err != nil {
				f.Fatal(err)
			}
			rc.Write([]byte("one record"))
			rc.Write(bytes.Repeat([]byte{7}, 300))
			f.Add(wire.Bytes(), padded, uint8(len(header)))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, false, uint8(0)) // oversized record
	f.Add([]byte{0, 4, 0, 0, 'x'}, true, uint8(0))         // truncated body
	f.Fuzz(func(t *testing.T, data []byte, padded bool, headerLen uint8) {
		var wire bytes.Buffer
		wire.Write(data)
		rc, err := pt.NewRecordConn(streamtest.Plain(&wire), config(padded, headerLen))
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
		var wire bytes.Buffer
		wire.Write(data)
		_, open := pair()
		drain(t, pt.NewCodecConn(streamtest.Plain(&wire), open), len(data))
	})
}

// FuzzPsiphonRecordRead: psiphon's [4B len][payload][16B MAC] decoder.
func FuzzPsiphonRecordRead(f *testing.F) { fuzzCodecRead(f, recordCodecs[1].pair) }

// FuzzShadowsocksRecordRead: shadowsocks's [len+tag][payload+tag]
// decoder.
func FuzzShadowsocksRecordRead(f *testing.F) { fuzzCodecRead(f, recordCodecs[2].pair) }
