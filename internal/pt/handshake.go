package pt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"

	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// ErrFlightTooLong refuses a delimited flight longer than its bound.
var ErrFlightTooLong = errors.New("pt: handshake flight exceeds its bound")

// ErrFlightOverrun refuses a delimited flight that bytes follow.
var ErrFlightOverrun = errors.New("pt: bytes follow a delimited handshake flight")

// Transcript is what one side of a handshake has seen on its conn: the
// conn's seed, the random stream drawn from it and every flight in
// order, sent or received. Both sides number the flights alike, so
// flight i is the same bytes at either end.
type Transcript struct {
	Seed    int64
	Rand    *rand.Rand
	Flights [][]byte
	src     sim.Source // Rand's stream, inline: one allocation fewer
}

// Step is one flight of a handshake. A step with Send writes the flight
// Send builds. Any other step receives one: exactly N bytes, or with
// Until, bytes up to and including Until and at most N of them. A
// delimited flight is read as it arrives, so it must be the peer's last
// before the peer waits for a reply: bytes after Until refuse it. Check,
// if set, sees a received flight once the transcript holds it; it
// refuses the flight with an error or names how many bytes after it to
// read and discard.
type Step struct {
	Send  func(t *Transcript) []byte
	N     int
	Until []byte
	Check func(t *Transcript, flight []byte) (discard int, err error)
}

// Handshake is one side of a wrapping transport's handshake: its flights
// in order, then Records, which makes the conn the handshake hands out
// from the raw conn and the transcript, as a rule a record layer over
// the raw conn. A nil Records hands out the raw conn.
type Handshake struct {
	Steps   []Step
	Records func(conn netem.Stream, t *Transcript) (netem.Stream, error)
}

// Send is the step that writes b.
func Send(b []byte) Step { return Step{Send: func(*Transcript) []byte { return b }} }

// Random is the step that writes n bytes drawn from the conn's stream.
func Random(n int) Step {
	return Step{Send: func(t *Transcript) []byte {
		b := make([]byte, n)
		RandFill(t.Rand, b)
		return b
	}}
}

// Expect is the step that receives len(b) bytes and refuses them with
// err unless they are b.
func Expect(b []byte, err error) Step {
	return Step{N: len(b), Check: func(_ *Transcript, got []byte) (int, error) {
		if !bytes.Equal(got, b) {
			return 0, err
		}
		return 0, nil
	}}
}

// Run plays the handshake over conn with conn's seed. A fixed flight is
// read with io.ReadFull, a discard with io.CopyN and a delimited flight
// as it arrives, so nothing past the handshake is read, and a refused
// flight is the last one played.
func (h Handshake) Run(conn netem.Stream, seed int64) (netem.Stream, error) {
	t := &Transcript{Seed: seed, Flights: make([][]byte, 0, len(h.Steps)), src: sim.NewSource(seed)}
	t.Rand = sim.RandOn(&t.src)
	for _, s := range h.Steps {
		var flight []byte
		var err error
		switch {
		case s.Send != nil:
			flight = s.Send(t)
			_, err = conn.Write(flight)
		case s.Until != nil:
			flight, err = readUntil(conn, s.Until, s.N)
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

// readUntil reads what has arrived until it holds until, and refuses
// the flight once it holds more than bound bytes or bytes after until.
func readUntil(conn netem.Stream, until []byte, bound int) ([]byte, error) {
	flight := make([]byte, bound+1)
	for got := 0; got <= bound; {
		n, err := conn.Read(flight[got:])
		got += n
		switch i := bytes.Index(flight[:got], until); {
		case i >= 0 && i+len(until) < got:
			return nil, ErrFlightOverrun
		case i >= 0 && got <= bound:
			return flight[:got], nil
		case err != nil && got <= bound:
			return nil, err
		}
	}
	return nil, ErrFlightTooLong
}
