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

// newPipe makes a lone pipe, as a conn pair makes its two.
func newPipe(clock *Clock, acct *Acct) *pipe {
	p := new(pipe)
	p.init(clock, acct)
	return p
}

// TestPopZeroLengthBuf pins the io.Reader contract for zero-length
// reads: (0, nil) immediately, with any queued segment left untouched.
// The retired implementation fell through the copy loop and returned
// (0, nil) while silently keeping the segment queued *after* charging
// the window accounting for it.
func TestPopZeroLengthBuf(t *testing.T) {
	clock := NewClock()
	p := newPipe(clock, new(Acct))
	data, base, pool := getSegBuf(clock, []byte("abc"))
	if _, err := p.push(&seg{data: data, base: base, pool: pool}, nil); err != nil {
		t.Fatal(err)
	}
	if n, err, _ := p.readEvent(nil, 1, noDeadline, nil); n != 0 || err != nil {
		t.Fatalf("read(nil, 1) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err, _ := p.readEvent([]byte{}, 1, noDeadline, nil); n != 0 || err != nil {
		t.Fatalf("read(empty, 1) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err, _ := p.readEvent(nil, 0, noDeadline, nil); n != 0 || err != nil {
		t.Fatalf("read(nil, 0) = (%d, %v), want (0, nil)", n, err)
	}
	buf := make([]byte, 8)
	n, err, _ := p.readEvent(buf, 1, noDeadline, nil)
	if err != nil || string(buf[:n]) != "abc" {
		t.Fatalf("read after zero-length reads = (%q, %v), want (\"abc\", nil)", buf[:n], err)
	}
}

// TestGetSegBufOversized pins the oversized-payload fallback: anything
// larger than segmentSize gets a plain allocation instead of slicing
// the pooled segmentSize array out of bounds (which panicked).
func TestGetSegBufOversized(t *testing.T) {
	clock := NewClock()
	p := bytes.Repeat([]byte{0xAB}, segmentSize+1)
	data, base, pool := getSegBuf(clock, p)
	if base != nil || pool != nil {
		t.Fatalf("oversized payload should not be pooled (base=%v pool=%v)", base, pool)
	}
	if !bytes.Equal(data, p) {
		t.Fatal("oversized payload not copied intact")
	}

	// Size classes: small frames and bulk segments lease their class's
	// arrays.
	small, sbase, spool := getSegBuf(clock, make([]byte, 512))
	if spool != smallBufs.Token() || sbase == nil || len(small) != 512 {
		t.Fatal("512-byte frame should lease from smallBufs")
	}
	clock.Recycle(spool, sbase)
	bulk, bbase, bpool := getSegBuf(clock, make([]byte, segmentSize))
	if bpool != segBufs.Token() || bbase == nil || len(bulk) != segmentSize {
		t.Fatal("segmentSize payload should lease from segBufs")
	}
	clock.Recycle(bpool, bbase)
	if smallBufs.Out(clock) != 0 || segBufs.Out(clock) != 0 {
		t.Fatal("a recycled lease is still counted out")
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
			n.clock.Recycle(pool, base)
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
			n.clock.Recycle(pool, base)
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
		n.clock.Recycle(pool, base)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Read after SetReadSink should panic")
		}
	}()
	c.Read(make([]byte, 1))
}

// TestPipeKeepsItsArray feeds a pipe that is drained one segment behind,
// so it is never empty: the queue must reuse its nodes instead of
// drawing one for every segment that ever passed.
func TestPipeKeepsItsArray(t *testing.T) {
	clock := NewClock()
	acct := new(Acct)
	p := newPipe(clock, acct)
	push := func() {
		data, base, pool := getSegBuf(clock, []byte{'x'})
		if _, err := p.push(&seg{data: data, base: base, pool: pool}, nil); err != nil {
			t.Fatal(err)
		}
	}
	push()
	one := make([]byte, 1)
	for i := 0; i < 100_000; i++ {
		push()
		if n, err, _ := p.readEvent(one, 1, noDeadline, nil); n != 1 || err != nil {
			t.Fatalf("read %d = (%d, %v)", i, n, err)
		}
	}
	if got := p.segs.Len(); got != 1 {
		t.Fatalf("%d segments queued, want 1", got)
	}
	if c := segNodes.For(acct).Slabs(); c > 1 {
		t.Fatalf("segment list made %d slabs while the queue held at most 2", c)
	}
}
