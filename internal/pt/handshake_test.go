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

// callLog is a netem.Stream over fixed inbound flights that logs every
// Read and Write. A Read returns at most 7 bytes and none of the next
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
	conn, err := pt.Handshake{Steps: steps, Records: func(c netem.Stream, t *pt.Transcript) (netem.Stream, error) {
		flights = t.Flights
		return c, nil
	}}.Run(got, 1)
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

// TestHandshakeDelimitedBound: a delimited flight is read as it
// arrives, into a buffer one byte past its bound. It is accepted when its
// terminator ends it at its bound, and refused once it holds a byte past
// the bound or a byte after its terminator.
func TestHandshakeDelimitedBound(t *testing.T) {
	req := []byte("GET /tunnel\r\n\r\n")
	run := func(in []byte, bound int) (*callLog, error) {
		c := &callLog{in: [][]byte{in}}
		_, err := pt.Handshake{Steps: []pt.Step{{N: bound, Until: []byte("\r\n\r\n")}}}.Run(c, 1)
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
