package pt

import (
	"fmt"

	"ptperf/internal/netem"
)

// A Chain is one dial under way, a Body's steps played in order by
// Play. Step At takes the result of the wait the step before it started
// and starts the next wait, with Dial, Write, WriteTarget or a call
// given Then, or ends the dial with End. Each wait leaves a
// continuation, bound once per dial, that plays the next step from the
// event that ends the wait, so the calls are a goroutine's that dialed
// with the plain calls, at the same instants. A goroutine awaits the
// whole dial at once (netem.Await).
type Chain struct {
	At   int          // the step Next plays
	Raw  *netem.Conn  // what the last Dial opened
	Conn netem.Stream // what the last call given Then handed out
	Err  error        // what the last wait ended with, then the dial's error
	// Then is the continuation of a step's event call for a stream, a
	// handshake's or a dial's: it takes the stream or the error into
	// Conn and Err and plays on. Wait takes what the call returned.
	Then func(netem.Stream, error)

	body         Body
	waits, ended bool
	again        func() // plays on once a wait has ended
	rawFn        func(*netem.Conn, error)
	writeFn      func()
	to           netem.EventWriter
	out          []byte // what the Write under way has still to send
}

// A Body is a dialer's one dial body: Next plays its step At.
type Body interface{ Next() }

// Play plays body, whose Chain c is, as a Dialer's DialEvent with done.
func (c *Chain) Play(body Body, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	c.body = body
	c.again = func() {
		if c.waits = false; c.play() {
			done(c.Conn, c.Err)
		}
	}
	c.rawFn = func(raw *netem.Conn, err error) { c.Raw, c.Err = raw, err; c.again() }
	c.Then = func(conn netem.Stream, err error) { c.Conn, c.Err = conn, err; c.again() }
	c.writeFn = func() {
		if c.write() {
			c.again()
		}
	}
	if !c.play() {
		return nil, nil, false
	}
	return c.Conn, c.Err, true
}

// play plays steps until one waits, false, or the dial ends, true.
func (c *Chain) play() bool {
	for !c.waits && !c.ended {
		c.body.Next()
		c.At++
	}
	return c.ended
}

// End ends the dial with conn, or with a non-nil err, closing conn
// unless it is nil.
func (c *Chain) End(conn netem.Stream, err error) {
	if err != nil && conn != nil {
		conn.Close()
		conn = nil
	}
	c.Conn, c.Err, c.ended = conn, err, true
}

// Wait takes what a call given Then returned: its stream or error if it
// ended, or its wait.
func (c *Chain) Wait(conn netem.Stream, err error, done bool) {
	c.Conn, c.Err, c.waits = conn, err, !done
}

// Dial dials addr from host into Raw.
func (c *Chain) Dial(host *netem.Host, addr string) {
	var done bool
	c.Raw, c.Err, done = host.DialEvent(addr, c.rawFn)
	c.waits = !done
}

// Write writes b to conn in one Write.
func (c *Chain) Write(conn netem.EventWriter, b []byte) {
	c.to, c.out = conn, b
	c.waits = !c.write()
}

// write writes on what conn has not taken, and reports whether it has
// taken it all.
func (c *Chain) write() bool {
	n, err, done := c.to.WriteEvent(c.out, c.writeFn)
	c.out, c.Err = c.out[n:], err
	return done
}

// WriteTarget writes target's prologue to conn in one Write.
func (c *Chain) WriteTarget(conn netem.EventWriter, target string) {
	if b, err := Prologue(target); err != nil {
		c.Err = err
	} else {
		c.Write(conn, b)
	}
}

// DialWrapped is the common PT client skeleton, a dial body: dial addr
// from host, play hs with seed, send the target prologue. Its errors
// open with name.
func DialWrapped(host *netem.Host, addr string, hs Handshake, seed int64, target, name string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	x := &wrapped{host: host, addr: addr, hs: hs, seed: seed, target: target, name: name}
	return x.Play(x, done)
}

type wrapped struct {
	Chain
	host               *netem.Host
	addr, target, name string
	hs                 Handshake
	seed               int64
}

// Next closes the raw conn on a failed handshake and the handshake's
// conn on a failed prologue.
func (x *wrapped) Next() {
	c := &x.Chain
	if c.Err != nil {
		c.Err = fmt.Errorf("%s: %w", x.name, c.Err)
	}
	switch {
	case c.At == 0:
		c.Dial(x.host, x.addr)
	case c.At == 1 && c.Err == nil:
		c.Wait(x.hs.RunEvent(c.Raw, x.seed, c.Then))
	case c.At == 2 && c.Err != nil:
		c.End(c.Raw, c.Err)
	case c.At == 2:
		c.WriteTarget(c.Conn, x.target)
	default:
		c.End(c.Conn, c.Err)
	}
}
