package tor

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamPushNeverRegrows: 4 MiB pushed ahead of a reader that drains
// 64 KiB at a time queue in streamBufPool leases and nowhere else (one
// array doubling its way there would allocate and copy 8 MiB), arrive in
// order, and every lease is back in the pool after Close, whether the
// reader drained it or not.
func TestStreamPushNeverRegrows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const total = 4 << 20
	const chunks = total/streamBufSize + 2
	w := buildWorld(t, 1, 1, 1)
	conn, err := newTestClient(t, w, nil).Dial(w.target)
	if err != nil {
		t.Fatal(err)
	}
	s := conn.(*Stream)

	// What goes into the pool must be there to lease again: see
	// fetch.TestAccessAllocationBudget.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	leaseAll := func() {
		var leases [chunks]*[]byte
		for i := range leases {
			leases[i] = streamBufPool.Get().(*[]byte)
		}
		for _, l := range leases {
			streamBufPool.Put(l)
		}
	}
	leaseAll() // fills the pool

	cell := make([]byte, MaxRelayData)
	got, read := make([]byte, 64<<10), 0
	grew := allocated(func() {
		for sent := 0; sent < total; sent += len(cell) {
			for i := range cell {
				cell[i] = byte((sent + i) % 251)
			}
			s.push(cell)
		}
		for ; read < total/2; read += len(got) {
			if n, err := s.ReadFull(got); n != len(got) || err != nil {
				t.Fatalf("read %d, %v", n, err)
			}
			for i, b := range got {
				if b != byte((read+i)%251) {
					t.Fatalf("byte %d arrived as %d", read+i, b)
				}
			}
		}
	})
	// The list of leases and the pool's own chain grow; a chunk is 65 KiB.
	t.Logf("allocated outside the pool: %d bytes", grew)
	if grew > 16<<10 {
		t.Errorf("queueing %d bytes and reading half allocated %d outside the pool", total, grew)
	}
	if want := (total+len(cell)-1)/len(cell)*len(cell) - read; s.buffered != want || len(s.chunks) < want/streamBufSize {
		t.Fatalf("%d bytes in %d chunks still queued, want %d bytes", s.buffered, len(s.chunks), want)
	}
	s.Close()
	if s.buffered != 0 || len(s.chunks) != 0 {
		t.Fatalf("%d bytes in %d chunks queued after Close", s.buffered, len(s.chunks))
	}
	if missing := allocated(leaseAll); missing > 16<<10 {
		t.Errorf("leasing %d chunks after Close allocated %d bytes: not every lease came back", chunks, missing)
	}
	if l := streamBufPool.Get().(*[]byte); len(*l) != 0 || cap(*l) != streamBufSize {
		t.Errorf("a lease came back with len %d cap %d", len(*l), cap(*l))
	}
}
