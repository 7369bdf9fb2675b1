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
// the raw conn. A nil Records hands out the raw conn. On a server,
// Records runs in the clock event that ends the last flight, so it must
// not park.
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

// RunEvent plays the handshake over conn with conn's seed without
// parking: it returns done with the conn Records made, or the error
// that ended the handshake, or false at its first wait, and done, never
// nil, gets the result from the event that ends it (a goroutine awaits
// it, netem.Await). It makes the calls a goroutine playing the flights
// in order made: a sent flight is one Write, a fixed flight is read
// with io.ReadFull's reads, a discard with io.CopyN's, 8 KiB at most
// each, and a delimited flight as it arrives, into a buffer one byte
// past its bound. So nothing past the handshake is read, and a refused
// flight is the last one played. Records must not park either.
func (h Handshake) RunEvent(conn netem.Stream, seed int64, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	p := &player{h: h, conn: conn}
	p.t = Transcript{Seed: seed, Flights: make([][]byte, 0, len(h.Steps)), src: sim.NewSource(seed)}
	p.t.Rand = sim.RandOn(&p.t.src)
	p.again = func() {
		if p.run() {
			done(p.out, p.err)
		}
	}
	if !p.run() {
		return nil, nil, false
	}
	return p.out, p.err, true
}

// player is one handshake under way: step is the step it is at, whose
// flight, fill.buf, is sent or received, fill.got bytes of it so far,
// and then left bytes after it are discarded into fill.buf. out and err
// are its result once it ends.
type player struct {
	h                   Handshake
	conn, out           netem.Stream
	err                 error
	t                   Transcript
	again               func() // run on, bound once
	step                int
	started, discarding bool
	fill                fullRead
	left                int
}

// run plays on from where the handshake stands until it waits, false,
// or ends, true.
func (p *player) run() bool {
	for ; p.step < len(p.h.Steps); p.step++ {
		s := &p.h.Steps[p.step]
		if !p.started {
			p.started, p.fill = true, fullRead{}
			switch {
			case s.Send != nil:
				p.fill.buf = s.Send(&p.t)
			case s.Until != nil:
				p.fill.buf = make([]byte, s.N+1)
			default:
				p.fill.buf = make([]byte, s.N)
			}
		}
		if !p.discarding {
			flight, err, done := p.move(s)
			if !done {
				return false
			}
			p.t.Flights = append(p.t.Flights, flight)
			if err == nil && s.Check != nil {
				p.left, err = s.Check(&p.t, flight)
			}
			if err != nil {
				p.err = err
				return true
			}
			if p.discarding = true; p.left > 0 {
				p.fill.buf = make([]byte, min(p.left, 8<<10))
			}
		}
		if err, done := p.discard(); !done {
			return false
		} else if err != nil {
			p.err = err
			return true
		}
		p.started, p.discarding, p.left = false, false, 0
	}
	if p.out = p.conn; p.h.Records != nil {
		p.out, p.err = p.h.Records(p.conn, &p.t)
	}
	return true
}

// move sends or receives the step's flight, and done false means again
// goes on with it.
func (p *player) move(s *Step) (flight []byte, err error, done bool) {
	f := &p.fill
	switch {
	case s.Send != nil:
		n, err, done := p.conn.WriteEvent(f.buf[f.got:], p.again)
		f.got += n
		return f.buf, err, done
	case s.Until != nil:
		for f.got <= s.N {
			n, err, done := p.conn.ReadEvent(f.buf[f.got:], p.again)
			if !done {
				return nil, nil, false
			}
			f.got += n
			switch i := bytes.Index(f.buf[:f.got], s.Until); {
			case i >= 0 && i+len(s.Until) < f.got:
				return nil, ErrFlightOverrun, true
			case i >= 0 && f.got <= s.N:
				return f.buf[:f.got], nil, true
			case err != nil && f.got <= s.N:
				return nil, err, true
			}
		}
		return nil, ErrFlightTooLong, true
	}
	err, done = f.read(p.conn, p.again)
	return f.buf, err, done
}

// discard reads the left bytes after a flight into fill.buf, and done
// false means again goes on.
func (p *player) discard() (err error, done bool) {
	for p.left > 0 {
		n, err, done := p.conn.ReadEvent(p.fill.buf[:min(len(p.fill.buf), p.left)], p.again)
		if !done {
			return nil, false
		}
		if p.left -= n; err != nil && p.left > 0 {
			return err, true
		}
	}
	return nil, true
}

// fullRead reads buf with the reads io.ReadFull makes, each a
// ReadEvent; got bytes of it are in.
type fullRead struct {
	buf []byte
	got int
}

// read reads on into buf and returns done with io.ReadFull's error, or
// done false where a read waits, with again queued to call read once
// more.
func (f *fullRead) read(conn netem.EventReader, again func()) (err error, done bool) {
	for f.got < len(f.buf) {
		n, err, done := conn.ReadEvent(f.buf[f.got:], again)
		if !done {
			return nil, false
		}
		if f.got += n; err != nil && f.got < len(f.buf) {
			if f.got > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err, true
		}
	}
	return nil, true
}

// ReadPrefixed reads a field that opens with its length, size bytes
// big-endian (at most 2), with the reads io.ReadFull makes, each a
// ReadEvent: the length, then the field, which it returns or done gets,
// or the error that ended the read.
func ReadPrefixed(conn netem.EventReader, size int, done func(field []byte, err error)) ([]byte, error, bool) {
	r := &prefixed{conn: conn}
	r.fill.buf = r.head[:size]
	return r.start(done)
}

// prefixed is a field being read: fill holds its length, then, once
// body is set, the field; err ends it.
type prefixed struct {
	conn  netem.EventReader
	again func() // run on, bound once
	fill  fullRead
	head  [2]byte
	body  bool
	err   error
}

// start reads the field, done getting it if a read waits.
func (r *prefixed) start(done func([]byte, error)) ([]byte, error, bool) {
	r.again = func() {
		if r.run() {
			done(r.fill.buf, r.err)
		}
	}
	if !r.run() {
		return nil, nil, false
	}
	return r.fill.buf, r.err, true
}

// run reads on until a wait, false, or the read's end, true.
func (r *prefixed) run() bool {
	for {
		if err, done := r.fill.read(r.conn, r.again); !done {
			return false
		} else if err != nil {
			r.fill.buf, r.err = nil, err
			return true
		} else if r.body {
			return true
		}
		n := 0
		for _, b := range r.fill.buf {
			n = n<<8 | int(b)
		}
		r.fill, r.body = fullRead{buf: make([]byte, n)}, true
	}
}
