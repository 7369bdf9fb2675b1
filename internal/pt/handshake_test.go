package pt_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/cloak"
	"ptperf/internal/pt/obfs4"
	"ptperf/internal/pt/psiphon"
	"ptperf/internal/pt/shadowsocks"
	"ptperf/internal/pt/webtunnel"
	"ptperf/internal/sim"
)

// runHandshake plays h over conn with seed, awaiting it on a clock of
// its own: the conns these tests play over never leave a wait to a
// clock event.
func runHandshake(h pt.Handshake, conn netem.Stream, seed int64) (netem.Stream, error) {
	return netem.Await(netem.NewClock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return h.RunEvent(conn, seed, done)
	})
}

// callLog is a netem.Stream over fixed inbound flights that logs every
// Read and Write, plain or in event form. A Read returns at most 7 bytes and none of the next
// flight, so a fixed or discarded flight takes several.
type callLog struct {
	netem.Stream
	in    [][]byte
	calls []string
}

func (c *callLog) Read(p []byte) (int, error) {
	for len(c.in) > 0 && len(c.in[0]) == 0 {
		c.in = c.in[1:]
	}
	if len(c.in) == 0 {
		c.calls = append(c.calls, fmt.Sprintf("read %d: EOF", len(p)))
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 7)], c.in[0])
	c.in[0] = c.in[0][n:]
	c.calls = append(c.calls, fmt.Sprintf("read %d: %d", len(p), n))
	return n, nil
}

func (c *callLog) Write(p []byte) (int, error) {
	c.calls = append(c.calls, fmt.Sprintf("write %q", p))
	return len(p), nil
}

// ReadEvent, ReadFullEvent and WriteEvent never wait: each is the plain
// call, ReadFullEvent io.ReadFull over Read.
func (c *callLog) ReadEvent(p []byte, _ func()) (int, error, bool) {
	n, err := c.Read(p)
	return n, err, true
}

func (c *callLog) ReadFullEvent(p []byte, _ func()) (int, error, bool) {
	n, err := io.ReadFull(c, p)
	return n, err, true
}

func (c *callLog) WriteEvent(p []byte, _ func()) (int, error, bool) {
	n, err := c.Write(p)
	return n, err, true
}

// TestHandshakeRunCalls: Run makes the Read and Write calls that the
// hand-written sequence of io.ReadFull, io.CopyN and a loop that reads
// what has arrived makes, in the same order, and records the flights it
// saw.
func TestHandshakeRunCalls(t *testing.T) {
	// The padding is longer than io.Discard's 8 KiB buffer, so a discard
	// read with io.ReadFull would ask for other lengths than io.CopyN.
	pad := bytes.Repeat([]byte("p"), 8200)
	in := func() [][]byte {
		return [][]byte{slices.Concat([]byte("0123456789"), pad), []byte("GET / HTTP/1.1\r\n\r\n"), []byte("tail")}
	}
	steps := []pt.Step{
		pt.Send([]byte("hello")),
		{N: 10, Check: func(_ *pt.Transcript, f []byte) (int, error) { return len(pad), nil }},
		pt.Send([]byte("upgrade")),
		{N: 64, Until: []byte("\r\n\r\n")},
		pt.Send([]byte("reply")),
		{N: 4},
	}
	var flights [][]byte
	got := &callLog{in: in()}
	conn, err := runHandshake(pt.Handshake{Steps: steps, Records: func(c netem.Stream, t *pt.Transcript) (netem.Stream, error) {
		flights = t.Flights
		return c, nil
	}}, got, 1)
	if err != nil || conn != got {
		t.Fatalf("Run: %v, %v", conn, err)
	}

	want := &callLog{in: in()}
	want.Write([]byte("hello"))
	head := make([]byte, 10)
	io.ReadFull(want, head)
	io.CopyN(io.Discard, want, int64(len(pad)))
	want.Write([]byte("upgrade"))
	req := make([]byte, 64+1)
	n := 0
	for !bytes.HasSuffix(req[:n], []byte("\r\n\r\n")) {
		k, _ := want.Read(req[n:])
		n += k
	}
	want.Write([]byte("reply"))
	tail := make([]byte, 4)
	io.ReadFull(want, tail)

	if !reflect.DeepEqual(got.calls, want.calls) {
		t.Errorf("calls:\n%q\nwant\n%q", got.calls, want.calls)
	}
	wantFlights := [][]byte{[]byte("hello"), head, []byte("upgrade"), req[:n], []byte("reply"), tail}
	if !reflect.DeepEqual(flights, wantFlights) {
		t.Errorf("flights %q, want %q", flights, wantFlights)
	}
}

// TestHandshakeCheckRefuses: a flight its Check refuses ends the
// handshake there: nothing more is read or written and no record layer
// is made.
func TestHandshakeCheckRefuses(t *testing.T) {
	errWrong := errors.New("wrong flight")
	c := &callLog{in: [][]byte{[]byte("abcd" + "0123456789")}}
	_, err := runHandshake(pt.Handshake{Steps: []pt.Step{
		{N: 4, Check: func(*pt.Transcript, []byte) (int, error) { return 10, errWrong }},
		pt.Send([]byte("later")),
	}, Records: func(netem.Stream, *pt.Transcript) (netem.Stream, error) {
		t.Error("records made after a refused flight")
		return nil, nil
	}}, c, 1)
	if !errors.Is(err, errWrong) {
		t.Fatalf("Run: %v, want %v", err, errWrong)
	}
	if want := []string{"read 4: 4"}; !reflect.DeepEqual(c.calls, want) {
		t.Errorf("calls %q, want %q", c.calls, want)
	}
}

// TestHandshakeDelimitedBound: a delimited flight is read as it
// arrives, into a buffer one byte past its bound. It is accepted when its
// terminator ends it at its bound, and refused once it holds a byte past
// the bound or a byte after its terminator.
func TestHandshakeDelimitedBound(t *testing.T) {
	req := []byte("GET /tunnel\r\n\r\n")
	run := func(in []byte, bound int) (*callLog, error) {
		c := &callLog{in: [][]byte{in}}
		_, err := runHandshake(pt.Handshake{Steps: []pt.Step{{N: bound, Until: []byte("\r\n\r\n")}}}, c, 1)
		return c, err
	}
	for _, tc := range []struct {
		name  string
		in    []byte
		bound int
		err   error
		calls []string
	}{
		{"at its bound", req, len(req), nil, []string{"read 16: 7", "read 9: 7", "read 2: 1"}},
		{"one byte past its bound", req, len(req) - 1, pt.ErrFlightTooLong, []string{"read 15: 7", "read 8: 7", "read 1: 1"}},
		{"a byte after its terminator", append(req, 'x'), 64, pt.ErrFlightOverrun, []string{"read 65: 7", "read 58: 7", "read 51: 2"}},
	} {
		if c, err := run(tc.in, tc.bound); !errors.Is(err, tc.err) || !reflect.DeepEqual(c.calls, tc.calls) {
			t.Errorf("%s: %v after %q, want %v after %q", tc.name, err, c.calls, tc.err, tc.calls)
		}
	}
}

// TestHandshakeDraws: the transcript's stream is sim.NewRand of the
// conn's seed, so a flight drawn from it is the one the seed's own
// stream gives.
func TestHandshakeDraws(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		c := &callLog{}
		if _, err := runHandshake(pt.Handshake{Steps: []pt.Step{pt.Random(16)}}, c, seed); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 16)
		pt.RandFill(sim.NewRand(seed), want)
		if got := fmt.Sprintf("write %q", want); c.calls[0] != got {
			t.Errorf("seed %d: %s, want %s", seed, c.calls[0], got)
		}
	}
}

// referenceRun is Handshake.Run as every server ran it on a goroutine of
// its own, before the engine gained its event form: a fixed flight read
// with io.ReadFull, a discard with io.CopyN and a delimited flight with
// referenceUntil. FuzzHandshakeRunEvent holds RunEvent to it.
func referenceRun(h pt.Handshake, conn netem.Stream, seed int64) (netem.Stream, error) {
	t := &pt.Transcript{Seed: seed, Rand: sim.NewRand(seed), Flights: make([][]byte, 0, len(h.Steps))}
	for _, s := range h.Steps {
		var flight []byte
		var err error
		switch {
		case s.Send != nil:
			flight = s.Send(t)
			_, err = conn.Write(flight)
		case s.Until != nil:
			flight, err = referenceUntil(conn, s.Until, s.N)
		default:
			flight = make([]byte, s.N)
			_, err = io.ReadFull(conn, flight)
		}
		t.Flights = append(t.Flights, flight)
		discard := 0
		if err == nil && s.Check != nil {
			discard, err = s.Check(t, flight)
		}
		if err == nil && discard > 0 {
			_, err = io.CopyN(io.Discard, conn, int64(discard))
		}
		if err != nil {
			return nil, err
		}
	}
	if h.Records == nil {
		return conn, nil
	}
	return h.Records(conn, t)
}

// referenceUntil reads what has arrived until it holds until, and
// refuses the flight once it holds more than bound bytes or bytes after
// until.
func referenceUntil(conn netem.Stream, until []byte, bound int) ([]byte, error) {
	flight := make([]byte, bound+1)
	for got := 0; got <= bound; {
		n, err := conn.Read(flight[got:])
		got += n
		switch i := bytes.Index(flight[:got], until); {
		case i >= 0 && i+len(until) < got:
			return nil, pt.ErrFlightOverrun
		case i >= 0 && got <= bound:
			return flight[:got], nil
		case err != nil && got <= bound:
			return nil, err
		}
	}
	return nil, pt.ErrFlightTooLong
}

// segConn is a netem.Stream over a client's bytes cut into segments. A
// segment arrives when a read finds nothing: a Read lands it at once, as
// a parked reader wakes to it, and a ReadEvent leaves again for the
// driver, which lands it and calls again. reads logs the span asked
// and the count returned of every read that returns. An event write
// takes at most wcap bytes a call and leaves again for the rest.
type segConn struct {
	netem.Stream
	segs     [][]byte
	buf      []byte // arrived and unread
	reads    []int
	consumed int
	wrote    []byte
	wcap     int
	again    func()
	arrive   bool // again waits for a segment
}

func (c *segConn) take(p []byte) (int, error) {
	n := copy(p, c.buf)
	c.buf, c.consumed, c.reads = c.buf[n:], c.consumed+n, append(c.reads, len(p), n)
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (c *segConn) land() {
	c.buf, c.segs = append(c.buf, c.segs[0]...), c.segs[1:]
}

func (c *segConn) Read(p []byte) (int, error) {
	if len(c.buf) == 0 && len(c.segs) > 0 {
		c.land()
	}
	return c.take(p)
}

func (c *segConn) ReadEvent(p []byte, again func()) (int, error, bool) {
	if len(c.buf) == 0 && len(c.segs) > 0 {
		c.again, c.arrive = again, true
		return 0, nil, false
	}
	n, err := c.take(p)
	return n, err, true
}

// ReadFullEvent reads as ReadEvent does until p is full, leaving again
// for the driver with what it took where ReadEvent would.
func (c *segConn) ReadFullEvent(p []byte, again func()) (int, error, bool) {
	n := 0
	for n < len(p) {
		m, err, done := c.ReadEvent(p[n:], again)
		if n += m; !done || err != nil {
			return n, err, done
		}
	}
	return n, nil, true
}

func (c *segConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, p...)
	return len(p), nil
}

func (c *segConn) WriteEvent(p []byte, again func()) (int, error, bool) {
	n := min(len(p), c.wcap)
	c.wrote = append(c.wrote, p[:n]...)
	if n < len(p) {
		c.again, c.arrive = again, false
		return n, nil, false
	}
	return n, nil, true
}

// teeEnd is a pipe end that keeps what is written to it.
type teeEnd struct {
	pipeEnd
	sent *bytes.Buffer
}

func (c teeEnd) WriteEvent(b []byte, again func()) (int, error, bool) {
	c.sent.Write(b)
	return c.pipeEnd.WriteEvent(b, again)
}

// clientBytes plays w's client with seed against its server over a pipe
// and returns what the client sent.
func clientBytes(w pt.WrapTransport, seed int64) []byte {
	a, b := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		runHandshake(w.Server, pipeEnd{b}, seed+1)
		b.Close()
	}()
	var sent bytes.Buffer
	runHandshake(w.Client, teeEnd{pipeEnd{a}, &sent}, seed)
	a.Close()
	<-served
	return sent.Bytes()
}

var handshakeKey = []byte("handshake-fuzz-key")

// fuzzedServers are the server handshakes FuzzHandshakeRunEvent plays,
// each with the transport whose client makes its flights. The synthetic
// one reads a 4-byte head naming a discard of up to 64 KiB, then a
// delimited flight, from the fuzzer's bytes alone.
var fuzzedServers = []struct {
	name      string
	transport pt.WrapTransport
}{
	{"obfs4", obfs4.Transport(obfs4.Config{Secret: handshakeKey})},
	{"cloak", cloak.Transport(cloak.Config{UID: handshakeKey})},
	{"shadowsocks", shadowsocks.Transport(shadowsocks.Config{PSK: handshakeKey})},
	{"webtunnel", webtunnel.Transport(webtunnel.Config{SNI: "cdn.example"})},
	{"psiphon", psiphon.Transport(psiphon.Config{HostKey: handshakeKey})},
	{"synthetic", pt.WrapTransport{Server: pt.Handshake{Steps: []pt.Step{
		{N: 4, Check: func(_ *pt.Transcript, head []byte) (int, error) { return int(head[2])<<8 | int(head[3]), nil }},
		pt.Send([]byte("go on")),
		{N: 24, Until: []byte("\r\n")},
		pt.Send([]byte("done")),
	}}}},
}

// FuzzHandshakeRunEvent plays a server handshake over a client's flights,
// one byte of them perhaps flipped and fuzzed bytes after them, cut into
// segments at fuzzed boundaries, once with the reference and once with
// RunEvent, whose writes are cut too. Both must see the same flights,
// reach the same verdict, make the same reads of as many bytes and write
// the same bytes.
func FuzzHandshakeRunEvent(f *testing.F) {
	for i := range fuzzedServers {
		f.Add(uint8(i), int64(i), []byte{6, 0, 200, 31}, uint16(0), []byte("\x00\x00\x20\x10tail\r\n"), uint8(5))
		f.Add(uint8(i), int64(i+7), []byte{}, uint16(3), []byte{}, uint8(255))
	}
	// A discard of more than io.CopyN's 8 KiB reads, in one segment.
	f.Add(uint8(len(fuzzedServers)-1), int64(0), []byte{3}, uint16(0), append([]byte{0, 0, 0x23, 0x28}, bytes.Repeat([]byte("\r\n"), 4600)...), uint8(9))
	f.Fuzz(func(t *testing.T, which uint8, seed int64, cuts []byte, flip uint16, tail []byte, wcap uint8) {
		tc := fuzzedServers[int(which)%len(fuzzedServers)]
		var in []byte
		if tc.transport.Client.Steps != nil {
			in = clientBytes(tc.transport, seed)
		}
		if i := int(flip) - 1; i >= 0 && i < len(in) {
			in[i] ^= 0xff
		}
		in = append(in, tail...)
		segments := func() [][]byte {
			var segs [][]byte
			rest := in
			for _, c := range cuts {
				n := min(int(c)+1, len(rest))
				segs, rest = append(segs, rest[:n]), rest[n:]
			}
			return append(segs, rest)
		}
		type result struct {
			flights  [][]byte
			verdict  string
			reads    []int
			consumed int
			wrote    []byte
		}
		play := func(event bool) result {
			var r result
			h := tc.transport.Server
			records := h.Records
			h.Records = func(c netem.Stream, tr *pt.Transcript) (netem.Stream, error) {
				r.flights = tr.Flights
				if records == nil {
					return c, nil
				}
				return records(c, tr)
			}
			c := &segConn{segs: segments(), wcap: int(wcap) + 1}
			var err error
			if event {
				ended := 0
				done := func(_ netem.Stream, e error) { err, ended = e, ended+1 }
				if _, e, ok := h.RunEvent(c, seed+1, done); ok {
					done(nil, e)
				}
				for ended == 0 {
					again := c.again
					if again == nil {
						t.Fatal("RunEvent waits with nothing queued")
					}
					if c.again = nil; c.arrive {
						c.land()
					}
					again()
				}
				if ended != 1 {
					t.Fatalf("RunEvent ended %d times", ended)
				}
			} else {
				_, err = referenceRun(h, c, seed+1)
			}
			r.verdict, r.reads, r.consumed, r.wrote = fmt.Sprint(err), c.reads, c.consumed, c.wrote
			return r
		}
		if ref, got := play(false), play(true); !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: RunEvent saw flights %q, verdict %s, reads %v of %d bytes and wrote %q; the reference %q, %s, %v of %d and %q",
				tc.name, got.flights, got.verdict, got.reads, got.consumed, got.wrote, ref.flights, ref.verdict, ref.reads, ref.consumed, ref.wrote)
		}
	})
}
