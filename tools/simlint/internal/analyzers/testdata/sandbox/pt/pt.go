// Package pt is a stub of ptperf/internal/pt for the simlint
// analysistest sandbox: noparkinevent takes the handlers handed to
// NewFrameConn and the dial handed to HandleWithDialer as event-callback
// roots, matched by package segment and name, and the continuations of
// Handshake.RunEvent and a Dialer's DialEvent as event forms'.
package pt

import "sandbox/netem"

type FrameConn struct{}

func NewFrameConn(cut func(b []byte) (int, int, error), frame func(body []byte), stop func()) *FrameConn {
	return &FrameConn{}
}

func (f *FrameConn) Await() {}

type Handshake struct{}

func (h Handshake) RunEvent(conn any, seed int64, done func(any, error)) (any, error, bool) {
	return nil, nil, true
}

type Dialer interface {
	DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool)
}

type DialerFunc func(target string, done func(netem.Stream, error)) (netem.Stream, error, bool)

func (f DialerFunc) DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	return f(target, done)
}

func HandleWithDialer(clock *netem.Clock, dial Dialer) func(string, netem.Stream) {
	return nil
}

type Chain struct{}

type Body interface{ Next() }

func (c *Chain) Play(body Body, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	return nil, nil, true
}
