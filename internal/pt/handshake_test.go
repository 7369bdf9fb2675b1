package pt_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// callLog is a netem.Stream over a fixed inbound byte string that logs
// every Read and Write. A Read returns at most 7 bytes, so a fixed or
// discarded flight takes several.
type callLog struct {
	netem.Stream
	in    []byte
	calls []string
}

func (c *callLog) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		c.calls = append(c.calls, fmt.Sprintf("read %d: EOF", len(p)))
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 7)], c.in)
	c.in = c.in[n:]
	c.calls = append(c.calls, fmt.Sprintf("read %d: %d", len(p), n))
	return n, nil
}

func (c *callLog) Write(p []byte) (int, error) {
	c.calls = append(c.calls, fmt.Sprintf("write %q", p))
	return len(p), nil
}

// TestHandshakeRunCalls: Run makes the Read and Write calls that the
// hand-written sequence of io.ReadFull, io.CopyN and a byte-at-a-time
// read makes, in the same order, and records the flights it saw.
func TestHandshakeRunCalls(t *testing.T) {
	// The padding is longer than io.Discard's 8 KiB buffer, so a discard
	// read with io.ReadFull would ask for other lengths than io.CopyN.
	pad := bytes.Repeat([]byte("p"), 8200)
	in := slices.Concat([]byte("0123456789"), pad, []byte("GET / HTTP/1.1\r\n\r\n"+"tail"))
	steps := []pt.Step{
		pt.Send([]byte("hello")),
		{N: 10, Check: func(_ *pt.Transcript, f []byte) (int, error) { return len(pad), nil }},
		pt.Send([]byte("upgrade")),
		{N: 64, Until: []byte("\r\n\r\n")},
		{N: 4},
	}
	var flights [][]byte
	got := &callLog{in: in}
	conn, err := pt.Handshake{Steps: steps, Records: func(c netem.Stream, t *pt.Transcript) (netem.Stream, error) {
		flights = t.Flights
		return c, nil
	}}.Run(got, 1)
	if err != nil || conn != got {
		t.Fatalf("Run: %v, %v", conn, err)
	}

	want := &callLog{in: in}
	want.Write([]byte("hello"))
	head := make([]byte, 10)
	io.ReadFull(want, head)
	io.CopyN(io.Discard, want, int64(len(pad)))
	want.Write([]byte("upgrade"))
	var req []byte
	one := make([]byte, 1)
	for !bytes.HasSuffix(req, []byte("\r\n\r\n")) {
		io.ReadFull(want, one)
		req = append(req, one[0])
	}
	tail := make([]byte, 4)
	io.ReadFull(want, tail)

	if !reflect.DeepEqual(got.calls, want.calls) {
		t.Errorf("calls:\n%q\nwant\n%q", got.calls, want.calls)
	}
	wantFlights := [][]byte{[]byte("hello"), head, []byte("upgrade"), req, tail}
	if !reflect.DeepEqual(flights, wantFlights) {
		t.Errorf("flights %q, want %q", flights, wantFlights)
	}
}

// TestHandshakeCheckRefuses: a flight its Check refuses ends the
// handshake there: nothing more is read or written and no record layer
// is made.
func TestHandshakeCheckRefuses(t *testing.T) {
	errWrong := errors.New("wrong flight")
	c := &callLog{in: []byte("abcd" + "0123456789")}
	_, err := pt.Handshake{Steps: []pt.Step{
		{N: 4, Check: func(*pt.Transcript, []byte) (int, error) { return 10, errWrong }},
		pt.Send([]byte("later")),
	}, Records: func(netem.Stream, *pt.Transcript) (netem.Stream, error) {
		t.Error("records made after a refused flight")
		return nil, nil
	}}.Run(c, 1)
	if !errors.Is(err, errWrong) {
		t.Fatalf("Run: %v, want %v", err, errWrong)
	}
	if want := []string{"read 4: 4"}; !reflect.DeepEqual(c.calls, want) {
		t.Errorf("calls %q, want %q", c.calls, want)
	}
}

// TestHandshakeDelimitedBound: a delimited flight is accepted when its
// terminator ends it at its bound, and refused at the first byte past
// the bound.
func TestHandshakeDelimitedBound(t *testing.T) {
	req := []byte("GET /tunnel\r\n\r\n")
	run := func(bound int) (*callLog, error) {
		c := &callLog{in: req}
		_, err := pt.Handshake{Steps: []pt.Step{{N: bound, Until: []byte("\r\n\r\n")}}}.Run(c, 1)
		return c, err
	}
	if c, err := run(len(req)); err != nil || len(c.calls) != len(req) {
		t.Errorf("at its bound: %v after %d reads", err, len(c.calls))
	}
	if c, err := run(len(req) - 1); !errors.Is(err, pt.ErrFlightTooLong) || len(c.calls) != len(req) {
		t.Errorf("one byte past its bound: %v after %d reads, want %v after %d", err, len(c.calls), pt.ErrFlightTooLong, len(req))
	}
}

// TestHandshakeDraws: the transcript's stream is sim.NewRand of the
// conn's seed, so a flight drawn from it is the one the seed's own
// stream gives.
func TestHandshakeDraws(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		c := &callLog{}
		if _, err := (pt.Handshake{Steps: []pt.Step{pt.Random(16)}}).Run(c, seed); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 16)
		pt.RandFill(sim.NewRand(seed), want)
		if got := fmt.Sprintf("write %q", want); c.calls[0] != got {
			t.Errorf("seed %d: %s, want %s", seed, c.calls[0], got)
		}
	}
}
