package netem

import (
	"errors"
	"io"
	"runtime"
	"runtime/debug"
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

// TestInboxDeliverNeverRegrows: 4 MiB delivered in tor-cell-sized
// pieces ahead of a reader that drains 64 KiB at a time queue in
// inboxChunkPool leases and nowhere else (one array doubling its way
// there would allocate and copy 8 MiB), arrive in order, and every lease
// is back in the pool once the reader has drained the queue, or once a
// Drop has released what it left.
func TestInboxDeliverNeverRegrows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const total = 4 << 20
	const piece = 498 // a tor RELAY_DATA cell's payload
	const chunks = total/inboxChunk + 2

	// What goes into the pool must be there to lease again: see
	// fetch.TestAccessAllocationBudget.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	leaseAll := func() {
		var leases [chunks]*[]byte
		for i := range leases {
			leases[i] = inboxChunkPool.Get().(*[]byte)
		}
		for _, l := range leases {
			inboxChunkPool.Put(l)
		}
	}
	leaseAll() // fills the pool

	for _, end := range []struct {
		name  string
		drain bool
	}{{"drained", true}, {"dropped", false}} {
		t.Run(end.name, func(t *testing.T) {
			clock := NewClock()
			defer clock.Shutdown()
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
					if n, err := q.ReadFull(got); n != len(got) || err != nil {
						t.Fatalf("read %d, %v", n, err)
					}
					for i, b := range got {
						if b != byte((read+i)%251) {
							t.Fatalf("byte %d arrived as %d", read+i, b)
						}
					}
				}
			})
			// The list of leases and the pool's own chain grow; a chunk
			// is 65 KiB.
			t.Logf("allocated outside the pool: %d bytes", grew)
			if grew > 16<<10 {
				t.Errorf("queueing %d bytes and reading half allocated %d outside the pool", total, grew)
			}
			if want := sent - read; q.n != want || len(q.chunks) < want/inboxChunk {
				t.Fatalf("%d bytes in %d chunks still queued, want %d bytes", q.n, len(q.chunks), want)
			}
			if end.drain {
				for q.n > 0 {
					q.ReadFull(got[:min(len(got), q.n)])
				}
			} else {
				q.Drop(errors.New("closed"))
			}
			if q.n != 0 || len(q.chunks) != 0 {
				t.Fatalf("%d bytes in %d chunks queued at the end", q.n, len(q.chunks))
			}
			if missing := allocated(leaseAll); missing > 16<<10 {
				t.Errorf("leasing %d chunks at the end allocated %d bytes: not every lease came back", chunks, missing)
			}
			if l := inboxChunkPool.Get().(*[]byte); len(*l) != 0 || cap(*l) != inboxChunk {
				t.Errorf("a lease came back with len %d cap %d", len(*l), cap(*l))
			} else {
				inboxChunkPool.Put(l)
			}
		})
	}
}

// TestInboxContract pins the read half both stream kinds share: how it
// ends, how its read timeout ends a read, and how a parked ReadFull is
// filled.
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
			if n, err := q.ReadFull(buf); n != 0 || err != io.EOF {
				t.Fatalf("after drain: %d %v, want io.EOF", n, err)
			}
		}},
		{"a drop error is returned at once, the queue released", func(t *testing.T, clock *Clock, q *Inbox) {
			q.Deliver([]byte("unread"))
			q.End()
			q.Drop(errDropped)
			q.Deliver([]byte("late"))
			if q.n != 0 || len(q.chunks) != 0 {
				t.Fatalf("%d bytes in %d chunks kept after Drop", q.n, len(q.chunks))
			}
			for _, read := range []func([]byte) (int, error){q.Read, q.ReadFull} {
				if n, err := read(make([]byte, 4)); n != 0 || err != errDropped {
					t.Fatalf("read after Drop: %d %v, want 0 and the drop error", n, err)
				}
			}
			if clock.Now() != 0 {
				t.Fatalf("reads after Drop waited until %v", clock.Now())
			}
		}},
		{"ErrTimeout at exactly the deadline instant", func(t *testing.T, clock *Clock, q *Inbox) {
			q.SetReadTimeout(50 * time.Millisecond)
			clock.EventAt(20*time.Millisecond, func() { q.Deliver([]byte("ab")) })
			buf := make([]byte, 4)
			n, err := q.ReadFull(buf)
			if n != 2 || string(buf[:n]) != "ab" || err != ErrTimeout || clock.Now() != 50*time.Millisecond {
				t.Fatalf("ReadFull: %q %v at %v, want \"ab\" and ErrTimeout at 50ms", buf[:n], err, clock.Now())
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
			n, err := q.ReadFull(buf)
			if n != 8 || err != nil || clock.Now() != 8*time.Millisecond {
				t.Fatalf("ReadFull: %d %v at %v, want 8 bytes at 8ms", n, err, clock.Now())
			}
			for i, b := range buf {
				if b != byte(i) {
					t.Fatalf("byte %d arrived as %d", i, b)
				}
			}
			if parks := clock.Stats().Parks - before.Parks; parks != 1 {
				t.Fatalf("ReadFull parked %d times, want once", parks)
			}
			if cap(q.chunks) != 0 {
				t.Fatal("a delivery to a parked ReadFull leased a chunk")
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
