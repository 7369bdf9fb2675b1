package pt_test

import (
	"bytes"
	"net"
	"testing"

	"ptperf/internal/pt"
)

// FuzzReadTarget: ReadTarget either rejects the bytes or returns exactly
// the target WriteTarget would have encoded.
func FuzzReadTarget(f *testing.F) {
	var seed bytes.Buffer
	pt.WriteTarget(&seed, "guard-0:9001")
	f.Add(seed.Bytes())
	f.Add([]byte{0})
	f.Add([]byte{255, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		target, err := pt.ReadTarget(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := pt.WriteTarget(&again, target); err != nil {
			t.Fatalf("decoded target does not encode: %v", err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded %q does not re-encode to the input", target)
		}
	})
}

// bufConn is a net.Conn over in-memory bytes: reads drain buf, writes
// append to it.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// FuzzRecordConnRead feeds arbitrary wire bytes to every RecordConn
// shape (plain or keyed, with or without a mimicry header): Read must
// fail cleanly or return bounded data, never panic or over-allocate.
func FuzzRecordConnRead(f *testing.F) {
	for _, keyed := range []bool{false, true} {
		for _, header := range []string{"", "\x17\x03\x03"} {
			cfg := pt.RecordConfig{Header: []byte(header), MaxPadding: 8, Seed: 1, IsClient: true}
			if keyed {
				cfg.Key = []byte("fuzz-key")
			}
			wire := &bufConn{}
			rc, err := pt.NewRecordConn(wire, cfg)
			if err != nil {
				f.Fatal(err)
			}
			rc.Write([]byte("one record"))
			rc.Write(bytes.Repeat([]byte{7}, 300))
			f.Add(wire.buf.Bytes(), keyed, uint8(len(header)))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, false, uint8(0)) // oversized record
	f.Add([]byte{0, 4, 0, 0, 'x'}, true, uint8(0))         // truncated body
	f.Fuzz(func(t *testing.T, data []byte, keyed bool, headerLen uint8) {
		cfg := pt.RecordConfig{Header: make([]byte, headerLen%8)}
		if keyed {
			cfg.Key = []byte("fuzz-key")
		}
		wire := &bufConn{}
		wire.buf.Write(data)
		rc, err := pt.NewRecordConn(wire, cfg)
		if err != nil {
			t.Fatal(err)
		}
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
		if total > len(data) {
			t.Fatalf("%d wire bytes decoded to %d payload bytes", len(data), total)
		}
	})
}
