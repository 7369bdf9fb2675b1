// Package netem is a stub of ptperf/internal/netem for the simlint
// analysistest sandbox: the analyzers match netem primitives by the
// final import-path segment, receiver type and method name, so these
// empty shells stand in for the real scheduler.
package netem

import (
	"net"
	"time"
)

type Clock struct{}

func (c *Clock) Now() time.Duration                  { return 0 }
func (c *Clock) Sleep(d time.Duration)               {}
func (c *Clock) SleepUntil(vt time.Duration)         {}
func (c *Clock) Go(fn func())                        {}
func (c *Clock) EventAt(vt time.Duration, fn func()) {}
func (c *Clock) ReadyEvent(fn func())                {}

func Await[T any](c *Clock, start func(done func(T, error)) (T, error, bool)) (T, error) {
	v, err, _ := start(nil)
	return v, err
}

type Mutex struct{}

func (m *Mutex) Lock()                    {}
func (m *Mutex) LockEvent(fn func()) bool { return true }
func (m *Mutex) Unlock()                  {}

type Cond struct{}

func (cd *Cond) Wait()                    {}
func (cd *Cond) WaitEvent(fn func()) bool { return true }
func (cd *Cond) Broadcast()               {}

type WaitGroup struct{}

func (w *WaitGroup) Add(n int) {}
func (w *WaitGroup) Done()     {}
func (w *WaitGroup) Wait()     {}

type Chan[T any] struct{}

func (ch *Chan[T]) Send(v T)         {}
func (ch *Chan[T]) TrySend(v T) bool { return true }
func (ch *Chan[T]) Recv() (T, bool) {
	var zero T
	return zero, false
}
func (ch *Chan[T]) RecvUntilEvent(vt time.Duration, again func()) (T, bool, bool, bool) {
	var zero T
	return zero, false, false, true
}
func (ch *Chan[T]) RecvEvent(again func()) (T, bool, bool) {
	var zero T
	return zero, false, true
}

type Conn struct{}

func (c *Conn) Read(p []byte) (int, error)                         { return 0, nil }
func (c *Conn) ReadFull(p []byte) (int, error)                     { return 0, nil }
func (c *Conn) Write(p []byte) (int, error)                        { return 0, nil }
func (c *Conn) TryWriteOwned(p []byte, base *[]byte) (bool, error) { return true, nil }
func (c *Conn) SetReadSink(sink func(data []byte, err error))      {}
func (c *Conn) ReadEvent(p []byte, again func()) (int, error, bool) {
	return 0, nil, true
}
func (c *Conn) WriteEvent(p []byte, again func()) (int, error, bool) {
	return 0, nil, true
}

// Inbox is the read half pt and tor streams embed, so its methods are
// theirs by promotion.
type Inbox struct{}

func (q *Inbox) Read(p []byte) (int, error) { return 0, nil }
func (q *Inbox) ReadEvent(p []byte, again func()) (int, error, bool) {
	return 0, nil, true
}
func (q *Inbox) ReadFullEvent(p []byte, again func()) (int, error, bool) {
	return 0, nil, true
}

// Stream is the world conn: its plain Read and Write are net.Conn's,
// so a call through it dispatches into a parking Read or Write.
type Stream interface {
	net.Conn
	ReadEvent(p []byte, again func()) (int, error, bool)
	WriteEvent(p []byte, again func()) (int, error, bool)
	SetReadTimeout(d time.Duration) error
}

type Host struct{}

func (h *Host) Dial(addr string) (*Conn, error) { return nil, nil }
func (h *Host) DialEvent(addr string, fn func(*Conn, error)) (*Conn, error, bool) {
	return nil, nil, true
}

type Listener struct{}

func (l *Listener) Accept() (*Conn, error) { return nil, nil }
func (l *Listener) Serve(fn func(c *Conn)) {}
