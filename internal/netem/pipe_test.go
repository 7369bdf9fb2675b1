package netem

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestPopZeroLengthBuf pins the io.Reader contract for zero-length
// reads: (0, nil) immediately, with any queued segment left untouched.
// The retired implementation fell through the copy loop and returned
// (0, nil) while silently keeping the segment queued *after* charging
// the window accounting for it.
func TestPopZeroLengthBuf(t *testing.T) {
	clock := NewClock()
	p := newPipe(clock, 0, new(Acct))
	data, base, pool := getSegBuf([]byte("abc"))
	if _, err := p.push(&seg{data: data, base: base, pool: pool}, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := p.read(nil, 1, noDeadline); n != 0 || err != nil {
		t.Fatalf("read(nil, 1) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := p.read([]byte{}, 1, noDeadline); n != 0 || err != nil {
		t.Fatalf("read(empty, 1) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := p.read(nil, 0, noDeadline); n != 0 || err != nil {
		t.Fatalf("read(nil, 0) = (%d, %v), want (0, nil)", n, err)
	}
	buf := make([]byte, 8)
	n, err := p.read(buf, 1, noDeadline)
	if err != nil || string(buf[:n]) != "abc" {
		t.Fatalf("read after zero-length reads = (%q, %v), want (\"abc\", nil)", buf[:n], err)
	}
}

// TestReadEOFBeforeTimeout pins the one order both thresholds share: a
// drained, writer-closed pipe reports io.EOF even when the deadline has
// also passed, at one byte (Conn.Read) and at len(buf) (Conn.ReadFull).
func TestReadEOFBeforeTimeout(t *testing.T) {
	clock := NewClock()
	p := newPipe(clock, 0, new(Acct))
	data, base, pool := getSegBuf([]byte("abc"))
	if _, err := p.push(&seg{data: data, base: base, pool: pool}, nil); err != nil {
		t.Fatal(err)
	}
	p.closeWrite()
	expired := clock.Now()
	buf := make([]byte, 8)
	if n, err := p.read(buf, len(buf), expired); n != 3 || err != io.EOF {
		t.Fatalf("threshold read = (%d, %v), want (3, EOF)", n, err)
	}
	if n, err := p.read(buf, 1, expired); n != 0 || err != io.EOF {
		t.Fatalf("one-byte read = (%d, %v), want (0, EOF)", n, err)
	}
}

// TestGetSegBufOversized pins the oversized-payload fallback: anything
// larger than segmentSize gets a plain allocation instead of slicing
// the pooled segmentSize array out of bounds (which panicked).
func TestGetSegBufOversized(t *testing.T) {
	p := bytes.Repeat([]byte{0xAB}, segmentSize+1)
	data, base, pool := getSegBuf(p)
	if base != nil || pool != nil {
		t.Fatalf("oversized payload should not be pooled (base=%v pool=%v)", base, pool)
	}
	if !bytes.Equal(data, p) {
		t.Fatal("oversized payload not copied intact")
	}

	// Size classes: small frames and bulk segments draw pooled arrays.
	small, sbase, spool := getSegBuf(make([]byte, 512))
	if spool != &smallBufPool || sbase == nil || len(small) != 512 {
		t.Fatal("512-byte frame should draw from smallBufPool")
	}
	putSegBuf(spool, sbase)
	bulk, bbase, bpool := getSegBuf(make([]byte, segmentSize))
	if bpool != &segBufPool || bbase == nil || len(bulk) != segmentSize {
		t.Fatal("segmentSize payload should draw from segBufPool")
	}
	putSegBuf(bpool, bbase)
}

// TestReadFull exercises the threshold-read contract: exactly len(p)
// bytes with a nil error, a short count only alongside io.EOF, and
// ErrTimeout on an expired deadline.
func TestReadFull(t *testing.T) {
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	msg := bytes.Repeat([]byte("full-read-"), 5000) // 50K, multi-segment
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write(msg)
		c.(*Conn).CloseWrite()
	})

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc := c.(*Conn)

	// Exact fill across several segments, in two requests.
	half := len(msg) / 2
	buf := make([]byte, len(msg))
	if rn, err := cc.ReadFull(buf[:half]); rn != half || err != nil {
		t.Fatalf("ReadFull(first half) = (%d, %v), want (%d, nil)", rn, err, half)
	}
	if rn, err := cc.ReadFull(buf[half:]); rn != len(msg)-half || err != nil {
		t.Fatalf("ReadFull(second half) = (%d, %v), want (%d, nil)", rn, err, len(msg)-half)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("ReadFull payload mismatch")
	}

	// Past end of stream: zero bytes, io.EOF.
	if rn, err := cc.ReadFull(make([]byte, 10)); rn != 0 || err != io.EOF {
		t.Fatalf("ReadFull past EOF = (%d, %v), want (0, EOF)", rn, err)
	}
}

// TestReadFullShortEOF checks that a request larger than the remaining
// stream drains what arrived and reports io.EOF with the short count.
func TestReadFullShortEOF(t *testing.T) {
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write([]byte("short"))
		c.(*Conn).CloseWrite()
	})

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 64)
	rn, err := c.(*Conn).ReadFull(buf)
	if rn != 5 || err != io.EOF || string(buf[:rn]) != "short" {
		t.Fatalf("ReadFull on short stream = (%q, %v), want (\"short\", EOF)", buf[:rn], err)
	}
}

// TestReadFullTimeout checks the deadline path: an unsatisfiable request
// returns what arrived (here nothing) with a timeout error.
func TestReadFullTimeout(t *testing.T) {
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n.Go(func() {
		c, _ := l.Accept()
		if c != nil {
			defer c.Close()
			// Hold the conn open without writing past the deadline.
			c.Read(make([]byte, 1))
		}
	})

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadTimeout(20 * time.Millisecond)
	rn, err := c.(*Conn).ReadFull(make([]byte, 16))
	ne, ok := err.(interface{ Timeout() bool })
	if rn != 0 || !ok || !ne.Timeout() {
		t.Fatalf("ReadFull past deadline = (%d, %v), want (0, timeout)", rn, err)
	}
}

// TestReadFullTimingMatchesEagerRead runs the same transfer through an
// eager Read loop and through ReadFull on identically-seeded networks:
// the bytes and the virtual completion instant must agree, because a
// threshold reader's last byte completes at exactly the instant an
// eager reader would have consumed it.
func TestReadFullTimingMatchesEagerRead(t *testing.T) {
	msg := bytes.Repeat([]byte("equivalence-"), 8000) // 96K, below the window bound

	run := func(full bool) ([]byte, time.Duration) {
		n, a, b := testNetwork(t)
		l, err := b.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		n.Go(func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			c.Write(msg)
			c.(*Conn).CloseWrite()
		})
		c, err := a.Dial("b:80")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var got []byte
		if full {
			got = make([]byte, len(msg))
			if _, err := c.(*Conn).ReadFull(got); err != nil {
				t.Fatal(err)
			}
		} else {
			got, err = io.ReadAll(c)
			if err != nil {
				t.Fatal(err)
			}
		}
		return got, n.Now()
	}

	eager, eagerDone := run(false)
	full, fullDone := run(true)
	if !bytes.Equal(eager, full) {
		t.Fatal("eager and threshold reads returned different bytes")
	}
	if eagerDone != fullDone {
		t.Fatalf("completion time diverged: eager %v, threshold %v", eagerDone, fullDone)
	}
}

// TestReadSinkDeliversAll checks inline delivery: every written byte
// reaches the sink in order with its pooled buffer, and the terminal
// callback reports io.EOF exactly once after the stream drains.
func TestReadSinkDeliversAll(t *testing.T) {
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	msg := bytes.Repeat([]byte("sink-payload-"), 4000) // 52K, multi-segment
	var got []byte
	var terms []error
	wg := NewWaitGroup(n.clock)
	wg.Add(1)
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.(*Conn).SetReadSink(func(data []byte, base *[]byte, pool *sync.Pool, err error) {
			if err != nil {
				terms = append(terms, err)
				wg.Done()
				return
			}
			got = append(got, data...)
			putSegBuf(pool, base)
		})
	})

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.(*Conn).CloseWrite()
	wg.Wait()

	if !bytes.Equal(got, msg) {
		t.Fatalf("sink received %d bytes, want %d", len(got), len(msg))
	}
	if len(terms) != 1 || terms[0] != io.EOF {
		t.Fatalf("terminal callbacks = %v, want exactly one io.EOF", terms)
	}
}

// TestLoopSinkLearnsWhatALoopWould: a conn is closed while a segment is
// in flight to it, in the same instant as an event already due. A read
// loop parked on the conn learns of the close at once, woken ahead of
// the event; a loop sink learns of it at the same instant and in the same
// place; a plain read sink only at the in-flight segment's arrival.
func TestLoopSinkLearnsWhatALoopWould(t *testing.T) {
	run := func(reader string) []string {
		n, a, b := testNetwork(t)
		l, err := b.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, n.clock.Now())) }
		c, err := a.Dial("b:80")
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		sc := s.(*Conn)
		sink := func(data []byte, base *[]byte, pool *sync.Pool, err error) {
			if err != nil {
				note("closed")
			}
			putSegBuf(pool, base)
		}
		switch reader {
		case "loop":
			n.Go(func() {
				for buf := make([]byte, 8); ; {
					if _, err := sc.Read(buf); err != nil {
						note("closed")
						return
					}
				}
			})
		case "loop sink":
			sc.SetLoopSink(sink)
		case "read sink":
			sc.SetReadSink(sink)
		}
		n.clock.Sleep(time.Millisecond)
		if _, err := c.Write([]byte("in flight")); err != nil {
			t.Fatal(err)
		}
		now := n.clock.Now()
		n.clock.EventAt(now, func() { note("event") })
		sc.Close()
		n.clock.Sleep(time.Second)
		if len(log) != 2 {
			t.Fatalf("%s: log %q, want the close and the event", reader, log)
		}
		return log
	}
	loop, loopSink, readSink := run("loop"), run("loop sink"), run("read sink")
	if !slices.Equal(loopSink, loop) {
		t.Errorf("a loop sink logged %q, the read loop %q", loopSink, loop)
	}
	if loop[0][:6] != "closed" || readSink[0][:5] != "event" || readSink[1] == loop[0] {
		t.Errorf("the read loop logged %q and the read sink %q: the sink no longer hears of a close at the in-flight segment's arrival", loop, readSink)
	}
}

// TestReadAfterSinkPanics pins the mutual exclusion of sink mode and
// Read: mixing them would silently race over the same segments.
func TestReadAfterSinkPanics(t *testing.T) {
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n.Go(func() {
		c, _ := l.Accept()
		if c != nil {
			c.Write([]byte("x"))
		}
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.(*Conn).SetReadSink(func(data []byte, base *[]byte, pool *sync.Pool, err error) {
		putSegBuf(pool, base)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Read after SetReadSink should panic")
		}
	}()
	c.Read(make([]byte, 1))
}

// TestPipeKeepsItsArray feeds a pipe that is drained one segment behind,
// so it is never empty: the queue must reuse its array instead of
// growing by every segment that ever passed.
func TestPipeKeepsItsArray(t *testing.T) {
	clock := NewClock()
	p := newPipe(clock, 0, new(Acct))
	push := func() {
		data, base, pool := getSegBuf([]byte{'x'})
		if _, err := p.push(&seg{data: data, base: base, pool: pool}, nil); err != nil {
			t.Fatal(err)
		}
	}
	push()
	one := make([]byte, 1)
	for i := 0; i < 100_000; i++ {
		push()
		if n, err := p.read(one, 1, noDeadline); n != 1 || err != nil {
			t.Fatalf("read %d = (%d, %v)", i, n, err)
		}
	}
	if got := len(p.segs) - p.segHead; got != 1 {
		t.Fatalf("%d segments queued, want 1", got)
	}
	if c := cap(p.segs); c > 16 {
		t.Fatalf("segment queue grew to cap %d while holding at most 2", c)
	}
}
