package stegotorus

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// wired is a chopConn over n fan-out conns of a world of its own, with
// no read loops, and what each conn's far end has read.
func wired(t *testing.T, n int, seed int64) (*chopConn, *netem.Network, []*bytes.Buffer) {
	net := netem.New(netem.WithSeed(seed))
	t.Cleanup(net.Clock().Shutdown)
	client := net.MustAddHost(netem.HostConfig{Name: "client", Location: geo.London})
	server := net.MustAddHost(netem.HostConfig{Name: "server", Location: geo.Frankfurt})
	ln, err := server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	wires, conns := make([]*bytes.Buffer, n), make([]*netem.Conn, n)
	for i := range conns {
		wires[i] = new(bytes.Buffer)
		if conns[i], err = netem.Await(net.Clock(), func(done func(*netem.Conn, error)) (*netem.Conn, error, bool) {
			return client.DialEvent("server:80", done)
		}); err != nil {
			t.Fatal(err)
		}
		far, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		net.Go(func() { io.Copy(wires[i], far) })
	}
	return &chopConn{
		Stream: pt.NewStream(net.Clock(), "steg", "a", "b", 0),
		cfg:    Config{}.withDefaults(), sid: 7, conns: conns, werrs: make([]error, n), rng: sim.NewRand(seed),
	}, net, wires
}

// drain ends c's fan-out conns and waits until their far ends have read
// everything.
func drain(c *chopConn, net *netem.Network) {
	for _, conn := range c.conns {
		conn.Close()
	}
	net.Clock().Sleep(time.Minute)
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
	got, gotNet, gotWires := wired(t, 3, 5)
	want, wantNet, wantWires := wired(t, 3, 5)
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
	drain(got, gotNet)
	drain(want, wantNet)
	for i := range gotWires {
		if !bytes.Equal(gotWires[i].Bytes(), wantWires[i].Bytes()) {
			t.Fatalf("fan-out conn %d carries different bytes", i)
		}
		r, ref := bufio.NewReader(gotWires[i]), bufio.NewReader(wantWires[i])
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
// The network's policy filters the first write's segment inside that
// Write, and writes again from there.
func TestChopConnWriteRefusesReentry(t *testing.T) {
	c, net, _ := wired(t, 1, 1)
	net.SetPolicy(reenter{write: func() { c.Write([]byte("second")) }})
	defer func() {
		if v := recover(); v != "stegotorus: chopConn.Write re-entered" {
			t.Fatalf("a Write inside a Write: recovered %v", v)
		}
	}()
	c.Write([]byte("first"))
}

// reenter is a policy that writes again on every segment.
type reenter struct{ write func() }

func (reenter) FilterDial(string, string) error { return nil }

func (reenter) ConnOpened(*netem.Conn) {}

func (r reenter) FilterSegment(netem.Flow, int) netem.Verdict {
	r.write()
	return netem.Verdict{}
}
