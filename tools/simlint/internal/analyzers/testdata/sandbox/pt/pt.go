// Package pt is a stub of ptperf/internal/pt for the simlint
// analysistest sandbox: noparkinevent takes the handlers handed to
// NewFrameConn and the dial handed to HandleWithDialer as event-callback
// roots, and Handshake.Run for a parking primitive, matched by package
// segment and name.
package pt

import "sandbox/netem"

type FrameConn struct{}

func NewFrameConn(cut func(b []byte) (int, int, error), frame func(body []byte), stop func()) *FrameConn {
	return &FrameConn{}
}

func (f *FrameConn) Await() {}

type Handshake struct{}

func (h Handshake) Run(conn any, seed int64) (any, error)                { return nil, nil }
func (h Handshake) RunEvent(conn any, seed int64, done func(any, error)) {}

func HandleWithDialer(clock *netem.Clock, dial func(target string, fn func(netem.Stream, error)) (netem.Stream, error, bool)) func(string, netem.Stream) {
	return nil
}
