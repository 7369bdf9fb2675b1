package netem

import "ptperf/internal/sim"

// nodeSlab is how many nodes a Nodes list allocates at once.
const nodeSlab = 32

type node[T any] struct {
	v    T
	next *node[T]
}

// A NodeClass is the queue nodes of one element type, a package-level
// variable as each BufClass is. A world's list of it (For) that runs dry
// takes a closed world's free chain (Network.Retire) before a slab.
type NodeClass[T any] struct {
	spare sim.Reservoir[Nodes[T]] // closed worlds' free chains
}

// For returns the network's list of the class, made on first use, which
// a's NodesOut counts.
func (c *NodeClass[T]) For(a *Acct) *Nodes[T] {
	for _, l := range a.lists {
		if ns, ok := l.(*Nodes[T]); ok && ns.class == c {
			return ns
		}
	}
	ns := &Nodes[T]{class: c}
	a.lists = append(a.lists, ns)
	return ns
}

// Nodes is the free list a world's queues of one element type draw
// their nodes from and give them back to on Pop, only under its world's
// run token. A zero Nodes is of no class: it takes and retires none.
type Nodes[T any] struct {
	class *NodeClass[T]
	free  *node[T]
	nfree int // nodes on free
	made  int // nodes owned: slabs made and chains taken, less those retired
	slabs int // slabs made
}

// Slabs reports how many slabs the list has allocated.
func (ns *Nodes[T]) Slabs() int { return ns.slabs }

// Out reports how many of the list's nodes are not on it: 0 once every
// queue drawing from it is empty.
func (ns *Nodes[T]) Out() int { return ns.made - ns.nfree }

// retire hands the free chain to the class's reservoir.
func (ns *Nodes[T]) retire() {
	if ns.class != nil && ns.free != nil {
		ns.class.spare.Give(Nodes[T]{free: ns.free, nfree: ns.nfree})
		ns.free, ns.made, ns.nfree = nil, ns.made-ns.nfree, 0
	}
}

// Queue is a FIFO on nodes from one Nodes list, bound by Init.
type Queue[T any] struct {
	nodes      *Nodes[T]
	head, tail *node[T]
	n          int
}

// Init empties q and binds it to its list.
func (q *Queue[T]) Init(nodes *Nodes[T]) { *q = Queue[T]{nodes: nodes} }

// Len reports how many elements are queued.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	ns := q.nodes
	if ns.free == nil && ns.class != nil {
		ch, _ := ns.class.spare.Take() // an empty chain when none is spare
		ns.free, ns.nfree, ns.made = ch.free, ch.nfree, ns.made+ch.nfree
	}
	if ns.free == nil {
		slab := make([]node[T], nodeSlab)
		for i := range slab[:nodeSlab-1] {
			slab[i].next = &slab[i+1]
		}
		ns.free, ns.nfree, ns.made, ns.slabs = &slab[0], nodeSlab, ns.made+nodeSlab, ns.slabs+1
	}
	n := ns.free
	ns.free, ns.nfree, n.v, n.next = n.next, ns.nfree-1, v, nil
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
	}
	q.tail = n
	q.n++
}

// Front returns the oldest element in place, or nil when q is empty.
func (q *Queue[T]) Front() *T {
	if q.head == nil {
		return nil
	}
	return &q.head.v
}

// Pop removes and returns the oldest element of a non-empty q. Its node
// goes back to the list cleared, so it holds no buffer lease.
func (q *Queue[T]) Pop() T {
	n := q.head
	v := n.v
	if q.head, q.n = n.next, q.n-1; q.head == nil {
		q.tail = nil
	}
	*n = node[T]{next: q.nodes.free}
	q.nodes.free, q.nodes.nfree = n, q.nodes.nfree+1
	return v
}
