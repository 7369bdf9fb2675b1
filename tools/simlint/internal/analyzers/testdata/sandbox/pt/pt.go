// Package pt is a stub of ptperf/internal/pt for the simlint
// analysistest sandbox: noparkinevent takes the handlers handed to
// NewFrameConn as event-callback roots, matched by package segment and
// name.
package pt

type FrameConn struct{}

func NewFrameConn(cut func(b []byte) (int, int, error), frame func(body []byte), stop func()) *FrameConn {
	return &FrameConn{}
}

func (f *FrameConn) Await() {}
