// Package tracekit is what the wire-trace pins share. Each recorder
// writes its lines as the pins were taken. Only _test.go files import it.
package tracekit

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// Trace is one run's record on a network, a line per observation.
type Trace struct {
	net   *netem.Network
	inner netem.Policy
	buf   []byte
}

// New returns an empty trace of n.
func New(n *netem.Network) *Trace { return &Trace{net: n} }

// Printf appends format's expansion.
func (tr *Trace) Printf(format string, args ...any) { tr.buf = fmt.Appendf(tr.buf, format, args...) }

// Bytes is the trace so far.
func (tr *Trace) Bytes() []byte { return tr.buf }

// Record notes what a call on side returned, and when.
func (tr *Trace) Record(side string, n int, err error) {
	tr.Printf("%s %d %v %d\n", side, n, err, tr.net.Now())
}

// Pin fails t, printing the trace, unless its fnv-64a digest is want.
func Pin(t testing.TB, trace *Trace, want string) {
	t.Helper()
	h := fnv.New64a()
	h.Write(trace.buf)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("trace digest %s, want %s; trace:\n%s", got, want, trace.buf)
	}
}

// Tap installs tr as its network's policy. It notes each dial with its
// verdict, conn opened and segment; the verdicts are inner's (a test's
// faults, a censor), or with a nil inner, passes.
func (tr *Trace) Tap(inner netem.Policy) *Trace {
	tr.inner = inner
	tr.net.SetPolicy(tr)
	return tr
}

// Note appends a line at the instant, bytes delivered and conns closed.
func (tr *Trace) Note(format string, args ...any) {
	a := tr.net.Acct().Snapshot()
	tr.Printf("%d %d %d "+format+"\n", append([]any{tr.net.Now(), a.BytesDelivered, a.ConnsClosed}, args...)...)
}

func (tr *Trace) FilterDial(src, dst string) (err error) {
	if tr.inner != nil {
		err = tr.inner.FilterDial(src, dst)
	}
	tr.Note("dial %s %s%s", src, dst, map[bool]string{true: " refused"}[err != nil])
	return err
}

func (tr *Trace) ConnOpened(c *netem.Conn) {
	tr.Note("open %s %s", c.LocalAddr(), c.RemoteAddr())
	if tr.inner != nil {
		tr.inner.ConnOpened(c)
	}
}

func (tr *Trace) FilterSegment(f netem.Flow, n int) (v netem.Verdict) {
	tr.Note("segment %s %s %d", f.Src, f.Dst, n)
	if tr.inner != nil {
		v = tr.inner.FilterSegment(f, n)
	}
	return v
}

// Conn records the event reads and writes, try-writes and closes on a
// conn as they return, a waiting event form when it finishes: instant,
// who, span asked for and result. A write's count is left out, as its
// failed turns count a segment that the plain call's count does not.
type Conn struct {
	*netem.Conn
	trace       *Trace
	who         string
	taken, read int // what a write's and a threshold read's unfinished turns took
}

// Calls returns c recording into tr, its lines naming who.
func (tr *Trace) Calls(c *netem.Conn, who string) *Conn { return &Conn{Conn: c, trace: tr, who: who} }

func (c *Conn) note(op string, span, n int, err error) {
	c.trace.Printf("%d %s %s %d %d %v\n", c.trace.net.Now(), c.who, op, span, n, err)
}

func (c *Conn) ReadEvent(p []byte, again func()) (int, error, bool) {
	n, err, done := c.Conn.ReadEvent(p, again)
	if done {
		c.note("read", len(p), n, err)
	}
	return n, err, done
}

func (c *Conn) ReadFullEvent(p []byte, again func()) (int, error, bool) {
	n, err, done := c.Conn.ReadFullEvent(p, again)
	if c.read += n; done {
		c.note("readfull", c.read-n+len(p), c.read, err)
		c.read = 0
	}
	return n, err, done
}

func (c *Conn) WriteEvent(p []byte, again func()) (int, error, bool) {
	n, err, done := c.Conn.WriteEvent(p, again)
	if c.taken += n; done {
		c.note("write", c.taken-n+len(p), 0, err)
		c.taken = 0
	}
	return n, err, done
}

func (c *Conn) TryWrite(p []byte) (bool, error) {
	ok, err := c.Conn.TryWrite(p)
	c.note("trywrite", len(p), map[bool]int{true: len(p)}[ok], err)
	return ok, err
}

func (c *Conn) Close() error {
	c.note("close", 0, 0, nil)
	return c.Conn.Close()
}

// Stream moves a pt.Stream's bytes over raw: a goroutine takes up to chunk
// bytes every millisecond, and a read sink delivers what arrives.
func Stream(clock *netem.Clock, raw *netem.Conn, chunk int) *pt.Stream {
	s := pt.NewStream(clock, "test", raw.LocalAddr().String(), raw.RemoteAddr().String(), 64<<10)
	raw.SetReadSink(func(data []byte, base *[]byte, pool *sync.Pool, err error) {
		if err != nil {
			s.PeerFin(0)
		} else {
			s.Deliver(data)
			clock.Recycle(pool, base)
		}
	})
	clock.Go(func() {
		for buf := []byte(nil); ; clock.Sleep(time.Millisecond) {
			if buf = s.Take(buf[:0], chunk); len(buf) > 0 {
				if _, err := raw.Write(buf); err != nil {
					s.Fail()
					return
				}
			} else if s.Closed() {
				raw.CloseWrite()
				return
			}
		}
	})
	return s
}
