package netem

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ptperf/internal/testkit"
)

// TestLeaseComesBackToItsWorld: a lease goes back to the list of the
// world that took it, by class or by token, and a token that is no
// class's gets its buffer itself; the census counts what is out.
func TestLeaseComesBackToItsWorld(t *testing.T) {
	drain(segBufs)
	a, b := NewClock(), NewClock()
	p := segBufs.Get(a)
	if segBufs.Out(a) != 1 || segBufs.Out(b) != 0 {
		t.Fatalf("census after one lease in a: %d in a, %d in b", segBufs.Out(a), segBufs.Out(b))
	}
	a.Recycle(segBufs.Token(), p)
	if segBufs.Out(a) != 0 || len(a.bufs[segBufs.id].free) != 1 || len(b.bufs[segBufs.id].free) != 0 {
		t.Fatal("a recycled segment did not go back to its world's list")
	}
	if q := segBufs.Get(a); q != p {
		t.Fatal("the next lease in a was not the buffer a got back")
	}

	var foreign sync.Pool
	mine := new([]byte)
	a.Recycle(&foreign, mine)
	a.Recycle(nil, mine)
	a.Recycle(segBufs.Token(), nil)
	if segBufs.Out(a) != 1 || len(a.bufs[segBufs.id].free) != 0 {
		t.Fatal("a buffer of no class, or no buffer, reached the world's list")
	}
}

// TestRetiredListsLeaseAgain: the list a closed world retires is what
// the next world's first leases take, whole, without touching the token
// pool (testbed's TestClosedWorldLeasesAgain counts their allocations).
func TestRetiredListsLeaseAgain(t *testing.T) {
	const n = 8
	drain(smallBufs)
	old := NewClock()
	var held [n]*[]byte
	for i := range held {
		held[i] = smallBufs.Get(old)
	}
	for _, p := range held {
		smallBufs.Put(old, p)
	}
	old.RetireBuffers()
	if len(old.bufs[smallBufs.id].free) != 0 {
		t.Fatal("a retired world kept its free list")
	}

	fresh := NewClock()
	var got [n]*[]byte
	for i := range got {
		got[i] = smallBufs.Get(fresh)
	}
	mine := map[*[]byte]bool{}
	for _, p := range held {
		mine[p] = true
	}
	for _, p := range got {
		if !mine[p] {
			t.Fatal("a fresh world leased a buffer the closed one did not retire")
		}
	}
}

// TestSinkPutIntoTokenLeasesAgain: a read sink outside the world's code
// that puts each base into the *sync.Pool it is handed, as the
// benchmark's counting sink does, still has its arrays leased again: a
// world whose list and reservoir are empty takes them from the token.
func TestSinkPutIntoTokenLeasesAgain(t *testing.T) {
	if testkit.Race {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	// One P and no collection: what was put is what the next Get returns.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	drain(smallBufs)
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	put := map[*[]byte]bool{}
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.(*Conn).SetReadSink(func(_ []byte, base *[]byte, pool *sync.Pool, err error) {
			if err == nil && base != nil && pool != nil {
				put[base] = true
				pool.Put(base)
			}
		})
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("one small segment")); err != nil {
		t.Fatal(err)
	}
	n.clock.Sleep(time.Second)
	if len(put) != 1 || smallBufs.Out(n.clock) != 1 {
		t.Fatalf("the sink put %d segments and the world counts %d out, want 1 and 1", len(put), smallBufs.Out(n.clock))
	}
	if p := smallBufs.Get(NewClock()); !put[p] {
		t.Fatal("a world's miss did not lease the array the sink put into the token")
	}
}

// drain empties cls's reservoir, so that a miss reaches its token.
func drain(cls *BufClass) {
	for {
		if _, ok := cls.spare.Take(); !ok {
			return
		}
	}
}

// BenchmarkLease times one lease round trip, a Get and a Put of a
// segment array on a world's list, against the sync.Pool Get and Put it
// replaced.
func BenchmarkLease(b *testing.B) {
	b.Run("world", func(b *testing.B) {
		clock := NewClock()
		segBufs.Put(clock, segBufs.Get(clock))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			segBufs.Put(clock, segBufs.Get(clock))
		}
	})
	b.Run("sync.Pool", func(b *testing.B) {
		pool := sync.Pool{New: func() any { p := make([]byte, segmentSize); return &p }}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.Put(pool.Get())
		}
	})
}

// TestRetireReturnsHeldSegment: a segment a writer shaped and holds for
// a full window goes back to its class when its stopped world retires,
// since no writer runs again to land it.
func TestRetireReturnsHeldSegment(t *testing.T) {
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() { l.Accept() }) // accepted, never read
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() { c.Write(make([]byte, 2*pipeWindow)) })
	n.clock.Sleep(time.Second)
	if !c.(*Conn).holding {
		t.Fatal("the writer holds no segment for the full window")
	}
	n.clock.Shutdown()
	n.Acct().AbortOpenConns()
	if out := segBufs.Out(n.clock); out != 1 {
		t.Fatalf("%d segments out in the stopped world, want the held one", out)
	}
	n.Retire()
	if out := segBufs.Out(n.clock); out != 0 || c.(*Conn).holding {
		t.Fatalf("%d segments out after Retire, want 0", out)
	}
}
