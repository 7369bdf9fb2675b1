package netem

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"
)

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readFull awaits q's threshold read into p, as the fetch body copy
// does: each wait's bytes count, and again reads on into the rest.
func readFull(clock *Clock, q *Inbox, p []byte) (int, error) {
	n := 0
	var done func(int, error)
	var again func()
	again = func() {
		m, err, ok := q.ReadFullEvent(p[n:], again)
		if n += m; ok {
			done(n, err)
		}
	}
	return Await(clock, func(d func(int, error)) (int, error, bool) {
		done = d
		m, err, ok := q.ReadFullEvent(p, again)
		n += m
		return n, err, ok
	})
}

// TestInboxDeliverNeverRegrows: 4 MiB delivered in tor-cell-sized
// pieces ahead of a reader that drains 64 KiB at a time queue in chunks
// leased from the world and nowhere else (one array doubling its way
// there would allocate and copy 8 MiB), arrive in order, and every lease
// is back on the world's list once the reader has drained the queue, or
// once a Drop has released what it left.
func TestInboxDeliverNeverRegrows(t *testing.T) {
	const total = 4 << 20
	const piece = 498 // a tor RELAY_DATA cell's payload
	const chunks = total/inboxChunk + 2

	for _, end := range []struct {
		name  string
		drain bool
	}{{"drained", true}, {"dropped", false}} {
		t.Run(end.name, func(t *testing.T) {
			clock := NewClock()
			defer clock.Shutdown()
			var leases [chunks]*[]byte
			for i := range leases {
				leases[i] = inboxChunks.Get(clock)
			}
			for _, l := range leases {
				inboxChunks.Put(clock, l) // the world's list holds them all
			}
			q := NewInbox(clock)
			cell := make([]byte, piece)
			got, read := make([]byte, 64<<10), 0
			sent := 0
			grew := allocated(func() {
				for ; sent < total; sent += len(cell) {
					for i := range cell {
						cell[i] = byte((sent + i) % 251)
					}
					q.Deliver(cell)
				}
				for ; read < total/2; read += len(got) {
					if n, err := readFull(clock, &q, got); n != len(got) || err != nil {
						t.Fatalf("read %d, %v", n, err)
					}
					for i, b := range got {
						if b != byte((read+i)%251) {
							t.Fatalf("byte %d arrived as %d", read+i, b)
						}
					}
				}
			})
			// The queue's list of leases grows; a chunk is 16 KiB.
			t.Logf("allocated outside the world's list: %d bytes", grew)
			if grew > 16<<10 {
				t.Errorf("queueing %d bytes and reading half allocated %d outside the world's list", total, grew)
			}
			if want := sent - read; q.unread.n != want || len(q.unread.chunks) < want/inboxChunk {
				t.Fatalf("%d bytes in %d chunks still queued, want %d bytes", q.unread.n, len(q.unread.chunks), want)
			}
			if end.drain {
				for q.unread.n > 0 {
					readFull(clock, &q, got[:min(len(got), q.unread.n)])
				}
			} else {
				q.Drop(errors.New("closed"))
			}
			if q.unread.n != 0 || len(q.unread.chunks) != 0 {
				t.Fatalf("%d bytes in %d chunks queued at the end", q.unread.n, len(q.unread.chunks))
			}
			if out, free := inboxChunks.Out(clock), len(clock.bufs[inboxChunks.id].free); out != 0 || free != chunks {
				t.Errorf("at the end the world has %d chunks out and %d free, want 0 and %d: not every lease came back", out, free, chunks)
			}
			for _, l := range clock.bufs[inboxChunks.id].free {
				if len(*l) != 0 || cap(*l) != inboxChunk {
					t.Errorf("a lease came back with len %d cap %d", len(*l), cap(*l))
				}
			}
		})
	}
}

// TestInboxContract pins the read half both stream kinds share: how it
// ends, how its read timeout ends a read, and how a waiting threshold
// read, awaited as the fetch body copy awaits it, is filled.
func TestInboxContract(t *testing.T) {
	errDropped := errors.New("dropped")
	cases := []struct {
		name string
		run  func(t *testing.T, clock *Clock, q *Inbox)
	}{
		{"delivered bytes drain before EOF", func(t *testing.T, clock *Clock, q *Inbox) {
			q.Deliver([]byte("tail"))
			q.End()
			q.Deliver([]byte("late")) // nobody will read it: dropped
			buf := make([]byte, 64)
			if n, err := q.Read(buf); string(buf[:n]) != "tail" || err != nil {
				t.Fatalf("drain: %q %v", buf[:n], err)
			}
			if n, err := readFull(clock, q, buf); n != 0 || err != io.EOF {
				t.Fatalf("after drain: %d %v, want io.EOF", n, err)
			}
		}},
		{"a drop error is returned at once, the queue released", func(t *testing.T, clock *Clock, q *Inbox) {
			q.Deliver([]byte("unread"))
			q.End()
			q.Drop(errDropped)
			q.Deliver([]byte("late"))
			if q.unread.n != 0 || len(q.unread.chunks) != 0 {
				t.Fatalf("%d bytes in %d chunks kept after Drop", q.unread.n, len(q.unread.chunks))
			}
			full := func(p []byte) (int, error) { return readFull(clock, q, p) }
			for _, read := range []func([]byte) (int, error){q.Read, full} {
				if n, err := read(make([]byte, 4)); n != 0 || err != errDropped {
					t.Fatalf("read after Drop: %d %v, want 0 and the drop error", n, err)
				}
			}
			if clock.Now() != 0 {
				t.Fatalf("reads after Drop waited until %v", clock.Now())
			}
		}},
		{"a Drop under a waiting threshold read keeps its count", func(t *testing.T, clock *Clock, q *Inbox) {
			// Two bytes are taken before the wait and two filled in
			// place while it waits; the Drop returns all four with its
			// error, as a netem conn's read returns what it took with
			// ErrClosed. The nil form parks; the event form returned the
			// first two before its wait.
			forms := []struct {
				name string
				read func(p []byte) (int, error)
			}{
				{"nil", func(p []byte) (int, error) { n, err, _ := q.ReadFullEvent(p, nil); return n, err }},
				{"event", func(p []byte) (int, error) { return readFull(clock, q, p) }},
			}
			for _, f := range forms {
				*q = NewInbox(clock)
				start := clock.Now()
				q.Deliver([]byte("ab"))
				clock.EventAt(start+time.Millisecond, func() { q.Deliver([]byte("cd")) })
				clock.EventAt(start+2*time.Millisecond, func() { q.Drop(errDropped) })
				buf := make([]byte, 8)
				n, err := f.read(buf)
				if n != 4 || string(buf[:n]) != "abcd" || err != errDropped || clock.Now() != start+2*time.Millisecond {
					t.Errorf("%s form: %q %v at %v, want \"abcd\" and the drop error at the Drop",
						f.name, buf[:n], err, clock.Now()-start)
				}
			}
		}},
		{"ErrTimeout at exactly the deadline instant", func(t *testing.T, clock *Clock, q *Inbox) {
			q.SetReadTimeout(50 * time.Millisecond)
			clock.EventAt(20*time.Millisecond, func() { q.Deliver([]byte("ab")) })
			buf := make([]byte, 4)
			n, err := readFull(clock, q, buf)
			if n != 2 || string(buf[:n]) != "ab" || err != ErrTimeout || clock.Now() != 50*time.Millisecond {
				t.Fatalf("readFull: %q %v at %v, want \"ab\" and ErrTimeout at 50ms", buf[:n], err, clock.Now())
			}
			if n, err := q.Read(buf); n != 0 || err != ErrTimeout || clock.Now() != 50*time.Millisecond {
				t.Fatalf("Read at the deadline: %d %v at %v", n, err, clock.Now())
			}
		}},
		{"SetReadTimeout wakes a parked read", func(t *testing.T, clock *Clock, q *Inbox) {
			clock.EventAt(time.Second, func() { q.SetReadTimeout(2 * time.Second) })
			if _, err := q.Read(make([]byte, 1)); err != ErrTimeout || clock.Now() != 3*time.Second {
				t.Fatalf("err=%v at %v, want ErrTimeout at 3s", err, clock.Now())
			}
		}},
		{"a parked ReadFull is filled in place and woken once", func(t *testing.T, clock *Clock, q *Inbox) {
			for i := range 8 {
				clock.EventAt(time.Duration(i+1)*time.Millisecond, func() { q.Deliver([]byte{byte(i)}) })
			}
			before := clock.Stats()
			buf := make([]byte, 8)
			n, err := readFull(clock, q, buf)
			if n != 8 || err != nil || clock.Now() != 8*time.Millisecond {
				t.Fatalf("readFull: %d %v at %v, want 8 bytes at 8ms", n, err, clock.Now())
			}
			for i, b := range buf {
				if b != byte(i) {
					t.Fatalf("byte %d arrived as %d", i, b)
				}
			}
			if parks := clock.Stats().Parks - before.Parks; parks != 1 {
				t.Fatalf("readFull parked %d times, want once", parks)
			}
			if cap(q.unread.chunks) != 0 {
				t.Fatal("a delivery to a parked readFull leased a chunk")
			}
		}},
		{"an event threshold read returns what it took and is woken once, filled", func(t *testing.T, clock *Clock, q *Inbox) {
			q.Deliver([]byte("ab"))
			buf := make([]byte, 6)
			var calls []string
			var again func()
			n := 0
			again = func() {
				m, err, ok := q.ReadFullEvent(buf[n:], again)
				n += m
				calls = append(calls, fmt.Sprintf("%d %v %v at %v", m, err, ok, clock.Now()))
			}
			clock.EventAt(time.Millisecond, func() { q.Deliver([]byte("cd")) })
			clock.EventAt(2*time.Millisecond, func() { q.Deliver([]byte("efgh")) })
			clock.EventAt(0, again)
			clock.Sleep(time.Second)
			if want := []string{"2 <nil> false at 0s", "4 <nil> true at 2ms"}; !slices.Equal(calls, want) || string(buf) != "abcdef" {
				t.Fatalf("reads %q into %q, want %q into \"abcdef\"", calls, buf, want)
			}
			if cap(q.unread.chunks) == 0 || q.unread.n != 2 {
				t.Fatalf("%d bytes queued, want the 2 past the request", q.unread.n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := NewClock()
			defer clock.Shutdown()
			q := NewInbox(clock)
			tc.run(t, clock, &q)
		})
	}
}
