package netem

import (
	"sync"
	"testing"
	"time"

	"ptperf/internal/testkit"
)

// TestQueueFIFOOnSharedNodes: two queues drawing from one list each
// give back what was pushed into them, in order, across several slabs,
// and every node is back on the list once both are empty; the list, a
// zero Nodes of no class, keeps them when retired.
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
	if c := ns.made; c%nodeSlab != 0 || c > 2*n {
		t.Fatalf("the list owns %d nodes for at most %d queued", c, 2*n)
	}
	if ns.retire(); ns.nfree != ns.made || ns.Out() != 0 {
		t.Fatalf("a list of no class retired its nodes: %d free of %d", ns.nfree, ns.made)
	}
}

// TestRetiredNodesLeaseAgain: the free chain a closed world's list
// retires is what the next list of its class takes, whole, before it
// makes a slab; nodes out stay counted exactly across the hand-over, and
// a list of another class does not take the chain.
func TestRetiredNodesLeaseAgain(t *testing.T) {
	var ints NodeClass[int]
	var strs NodeClass[string]
	old := New()
	var q Queue[int]
	q.Init(ints.For(old.Acct()))
	for i := range 2*nodeSlab + 5 {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	retired := map[*node[int]]bool{}
	for f := q.nodes.free; f != nil; f = f.next {
		retired[f] = true
	}
	made := q.nodes.made
	if made != 3*nodeSlab || len(retired) != made {
		t.Fatalf("the list owns %d nodes, %d free, want %d and all", made, len(retired), 3*nodeSlab)
	}
	old.Clock().Shutdown()
	old.Retire()
	if out := old.Acct().NodesOut(); out != 0 || q.nodes.made != 0 || q.nodes.free != nil {
		t.Fatalf("a retired list owns %d nodes, %d out", q.nodes.made, out)
	}

	fresh := New()
	t.Cleanup(fresh.Clock().Shutdown)
	var s Queue[string]
	s.Init(strs.For(fresh.Acct()))
	s.Push("other")
	if s.nodes.made != nodeSlab {
		t.Fatalf("a list of another class owns %d nodes, want one slab", s.nodes.made)
	}
	var p Queue[int]
	p.Init(ints.For(fresh.Acct()))
	for i := range made {
		p.Push(i)
		if !retired[p.tail] {
			t.Fatalf("push %d took a node the closed world did not retire", i)
		}
		if out := p.nodes.Out(); out != i+1 || p.nodes.made != made {
			t.Fatalf("after push %d the list owns %d nodes, %d out, want %d and %d", i, p.nodes.made, out, made, i+1)
		}
	}
	if p.nodes.Slabs() != 0 {
		t.Fatalf("a list that took a retired chain made %d slabs", p.nodes.Slabs())
	}
	p.Push(made)
	if p.nodes.made != made+nodeSlab || p.nodes.Slabs() != 1 || fresh.Acct().NodesOut() != made+2 {
		t.Fatalf("past the taken chain the list owns %d nodes in %d slabs, want %d: one chain, then a slab", p.nodes.made, p.nodes.Slabs(), made+nodeSlab)
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
	if free != ns.made || ns.Out() != 0 {
		t.Fatalf("%d of %d nodes free, %d out", free, ns.made, ns.Out())
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
