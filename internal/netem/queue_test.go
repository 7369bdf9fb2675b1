package netem

import (
	"sync"
	"testing"
	"time"

	"ptperf/internal/testkit"
)

// TestQueueFIFOOnSharedNodes: two queues drawing from one list each
// give back what was pushed into them, in order, across several slabs,
// and every node is back on the list once both are empty.
func TestQueueFIFOOnSharedNodes(t *testing.T) {
	var ns Nodes[int]
	var a, b Queue[int]
	a.Init(&ns)
	b.Init(&ns)
	const n = 3*nodeSlab + 5
	next := [2]int{}
	for i := 0; i < n; i++ {
		a.Push(i)
		b.Push(-i)
		if i%3 == 2 { // drain one of each behind, so nodes are reused mid-run
			if got := a.Pop(); got != next[0] {
				t.Fatalf("a popped %d, want %d", got, next[0])
			}
			if got := b.Pop(); got != -next[1] {
				t.Fatalf("b popped %d, want %d", got, -next[1])
			}
			next[0]++
			next[1]++
		}
	}
	if a.Len() != n-next[0] || b.Len() != n-next[1] {
		t.Fatalf("lengths %d and %d, want %d and %d", a.Len(), b.Len(), n-next[0], n-next[1])
	}
	for ; a.Len() > 0; next[0]++ {
		if got := *a.Front(); got != next[0] {
			t.Fatalf("a front %d, want %d", got, next[0])
		}
		if got := a.Pop(); got != next[0] {
			t.Fatalf("a popped %d, want %d", got, next[0])
		}
	}
	for ; b.Len() > 0; next[1]++ {
		if got := b.Pop(); got != -next[1] {
			t.Fatalf("b popped %d, want %d", got, -next[1])
		}
	}
	if next != [2]int{n, n} || a.Front() != nil || b.Front() != nil {
		t.Fatalf("popped %v, want %d from each, and both empty", next, n)
	}
	if out := ns.Out(); out != 0 {
		t.Fatalf("%d nodes not back on the list", out)
	}
	if c := ns.Cap(); c%nodeSlab != 0 || c > 2*n {
		t.Fatalf("the list owns %d nodes for at most %d queued", c, 2*n)
	}
}

// TestPoppedNodeHoldsNoLease: a node back on the list keeps no pointer to
// the segment buffer it carried, so the world's list alone owns it.
func TestPoppedNodeHoldsNoLease(t *testing.T) {
	clock := NewClock()
	var ns Nodes[seg]
	var q Queue[seg]
	q.Init(&ns)
	for i := 0; i < 3; i++ {
		data, base, pool := getSegBuf(clock, []byte("lease"))
		q.Push(seg{data: data, base: base, pool: pool, at: time.Second})
	}
	for q.Len() > 0 {
		s := q.Pop()
		clock.Recycle(s.pool, s.base)
	}
	free := 0
	for f := ns.free; f != nil; f = f.next {
		if f.v.data != nil || f.v.base != nil || f.v.pool != nil || f.v.at != 0 {
			t.Fatalf("free node %d still holds %+v", free, f.v)
		}
		free++
	}
	if free != ns.Cap() || ns.Out() != 0 {
		t.Fatalf("%d of %d nodes free, %d out", free, ns.Cap(), ns.Out())
	}
}

// TestPipeCycleAllocationFree: once warm, segments pushed into a pipe
// and delivered to its sink allocate nothing: the nodes come from the
// network's list and the buffers from the world's. A cycle queues two
// slabs' worth, so a node that never came back shows as allocations;
// they arrive a microsecond apart, one to a delivery, because a delivery
// of more than eight segments grows its batch on the heap.
func TestPipeCycleAllocationFree(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts do not hold under the race detector")
	}
	clock := NewClock()
	t.Cleanup(clock.Shutdown)
	acct := new(Acct)
	p := newPipe(clock, acct)
	delivered := 0
	p.setSink(func(data []byte, base *[]byte, pool *sync.Pool, err error) {
		delivered += len(data)
		clock.Recycle(pool, base)
	}, false)
	payload := make([]byte, 512)
	cycle := func() {
		for i := 0; i < 2*nodeSlab; i++ {
			data, base, pool := getSegBuf(clock, payload)
			s := seg{data: data, base: base, pool: pool, at: clock.Now() + time.Duration(i+1)*time.Microsecond}
			if _, err := p.push(&s, nil); err != nil {
				t.Fatal(err)
			}
		}
		clock.Sleep(time.Millisecond)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a warm push and delivery allocated %v objects, want 0", allocs)
	}
	if want := 202 * 2 * nodeSlab * len(payload); delivered != want || p.segs.Len() != 0 {
		t.Fatalf("delivered %d bytes with %d segments queued, want %d and none", delivered, p.segs.Len(), want)
	}
}
