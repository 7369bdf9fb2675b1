package streamtest

import (
	"io"

	"ptperf/internal/netem"
)

// Alter returns s with its reads cut into spans. Before each span, span
// is told how many bytes the altered stream has returned so far and how
// many the read still asks for, and returns how many of them the span
// may fill. A read fills one span; a threshold read fills as many as it
// takes, and an event read waits where s's read of the span waits. A
// span of 0 ends the stream there, as a circuit that dies mid-transfer
// ends one: s is closed, and that read and every later one return what
// they took with io.ErrUnexpectedEOF. Writes, closes and the read
// timeout are s's. Over a conforming stream, spans drawn from where they
// start alone conform until a span of 0 (TestStreamContractAltered).
func Alter(s netem.Stream, span func(got, want int) int) netem.Stream {
	return &altered{Stream: s, span: span}
}

// altered is a stream Alter cut: got bytes returned so far, and turn
// left of the span an event read waits in (0 for none).
type altered struct {
	netem.Stream
	span      func(got, want int) int
	got, turn int
	cut       bool
}

func (a *altered) Read(p []byte) (int, error) {
	n, err, _ := a.read(p, 1, nil)
	return n, err
}

func (a *altered) ReadEvent(p []byte, again func()) (int, error, bool) { return a.read(p, 1, again) }

func (a *altered) ReadFullEvent(p []byte, again func()) (int, error, bool) {
	return a.read(p, len(p), again)
}

// read fills p span by span until want bytes are in it, with s's read
// for a one-byte want and its threshold read otherwise.
func (a *altered) read(p []byte, want int, again func()) (n int, err error, done bool) {
	if len(p) == 0 {
		return 0, nil, true
	}
	read := a.Stream.ReadEvent
	if want > 1 {
		read = a.Stream.ReadFullEvent
	}
	for n < want {
		if a.turn == 0 && !a.cut {
			if a.turn = min(a.span(a.got, len(p)-n), len(p)-n); a.turn <= 0 {
				a.turn, a.cut = 0, true
				a.Stream.Close()
			}
		}
		if a.cut {
			return n, io.ErrUnexpectedEOF, true
		}
		m, err, done := read(p[n:n+a.turn], again)
		n, a.got, a.turn = n+m, a.got+m, a.turn-m
		if !done {
			return n, nil, false
		}
		if err != nil || want == 1 {
			a.turn = 0
			return n, err, true
		}
	}
	return n, nil, true
}
