package stegotorus

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// wire is a fan-out conn that keeps what was written to it.
type wire struct {
	netem.Stream
	buf bytes.Buffer
}

func (w *wire) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *wire) WriteEvent(p []byte, _ func()) (int, error, bool) {
	n, err := w.Write(p)
	return n, err, true
}

// wired is a chopConn over n wires, with no read loops.
func wired(n int, seed int64) (*chopConn, []*wire) {
	wires, conns := make([]*wire, n), make([]netem.Stream, n)
	for i := range wires {
		wires[i] = new(wire)
		conns[i] = wires[i]
	}
	return &chopConn{
		Stream: pt.NewStream(netem.NewClock(), "steg", "a", "b", 0),
		cfg:    Config{}.withDefaults(), sid: 7, conns: conns, werrs: make([]error, n), rng: sim.NewRand(seed),
	}, wires
}

// writeAlloc is chopConn.Write with a buffer of its own for every block
// and every cover's header line: the reference the kept block is held
// to. Its Content-Length is what base64 makes of the block, and the
// block goes out as it is, then zeros up to that length.
func (c *chopConn) writeAlloc(p []byte) {
	for len(p) > 0 {
		size := min(minBlock+c.rng.Intn(maxBlock-minBlock), len(p))
		block := make([]byte, blockHeader+size)
		binary.BigEndian.PutUint64(block[0:8], c.sid)
		binary.BigEndian.PutUint64(block[8:16], c.sendSeq)
		binary.BigEndian.PutUint32(block[16:20], uint32(size))
		copy(block[blockHeader:], p[:size])
		c.sendSeq++
		w := c.conns[c.rrIndex%len(c.conns)]
		c.rrIndex++
		body := base64.StdEncoding.EncodedLen(len(block))
		fmt.Fprintf(w, "POST /images/upload HTTP/1.1\r\nHost: pics.example\r\nContent-Type: image/jpeg\r\nContent-Length: %d\r\n\r\n%s%s",
			body, block, make([]byte, body-len(block)))
		p = p[size:]
	}
}

// decodeAlloc is the tail of decodeCover with a block of its own for
// every cover.
func decodeAlloc(t *testing.T, r *bufio.Reader) []byte {
	var n int
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
		fmt.Sscanf(line, "Content-Length: %d", &n)
	}
	cover := make([]byte, n)
	if _, err := io.ReadFull(r, cover); err != nil {
		t.Fatal(err)
	}
	size := binary.BigEndian.Uint32(cover[16:20])
	if size == finLen {
		size = 0
	}
	return append([]byte(nil), cover[:blockHeader+int(size)]...)
}

// TestSealMatchesAllocatingSeal: 1 000 writes of drawn sizes chopped in
// one kept block put on every fan-out conn byte for byte what the
// allocating Write put there, with the same draws; and every cover
// decodes in place to the block a copy of it gave.
func TestSealMatchesAllocatingSeal(t *testing.T) {
	got, gotWires := wired(3, 5)
	want, wantWires := wired(3, 5)
	sizes := sim.NewRand(9)
	payload := make([]byte, 8<<10)
	for i := 0; i < 1000; i++ {
		p := payload[:sizes.Intn(len(payload)+1)]
		pt.RandFill(sizes, p)
		if n, err := got.Write(p); n != len(p) || err != nil {
			t.Fatalf("write %d: %d of %d bytes, %v", i, n, len(p), err)
		}
		want.writeAlloc(p)
	}
	if got.rng.Uint64() != want.rng.Uint64() {
		t.Fatal("the two choppers drew differently")
	}
	for i := range gotWires {
		if !bytes.Equal(gotWires[i].buf.Bytes(), wantWires[i].buf.Bytes()) {
			t.Fatalf("fan-out conn %d carries different bytes", i)
		}
		r, ref := bufio.NewReader(&gotWires[i].buf), bufio.NewReader(&wantWires[i].buf)
		for blocks := 0; ; blocks++ {
			block, err := decodeCover(r)
			if err == io.EOF && blocks > 0 {
				break
			} else if err != nil {
				t.Fatalf("conn %d cover %d: %v", i, blocks, err)
			}
			if !bytes.Equal(block, decodeAlloc(t, ref)) {
				t.Fatalf("conn %d cover %d decodes differently in place", i, blocks)
			}
		}
	}
}

// TestChopConnWriteRefusesReentry: a second writer arriving while the
// first is inside a fan-out conn's Write is a bug, not a race to lose.
func TestChopConnWriteRefusesReentry(t *testing.T) {
	c, _ := wired(1, 1)
	c.conns[0] = reenter{write: func() { c.Write([]byte("second")) }}
	defer func() {
		if recover() == nil {
			t.Fatal("a Write inside a Write went through")
		}
	}()
	c.Write([]byte("first"))
}

// reenter is a fan-out conn whose Write calls back.
type reenter struct {
	netem.Stream
	write func()
}

func (r reenter) WriteEvent(p []byte, _ func()) (int, error, bool) {
	r.write()
	return len(p), nil, true
}
