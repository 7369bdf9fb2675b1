package netem

// nodeSlab is how many nodes a Nodes list allocates at once.
const nodeSlab = 32

type node[T any] struct {
	v    T
	next *node[T]
}

// Nodes is the free list a world's queues of one element type draw
// their nodes from, a slab at a time, and give them back to on Pop. It
// is used only under its world's run token.
type Nodes[T any] struct {
	free *node[T]
	made int // nodes allocated, a whole number of slabs
}

// NodesFor returns the network's list for elements of type T, made on
// first use, which a's NodesOut counts.
func NodesFor[T any](a *Acct) *Nodes[T] {
	for _, l := range a.lists {
		if ns, ok := l.(*Nodes[T]); ok {
			return ns
		}
	}
	ns := new(Nodes[T])
	a.lists = append(a.lists, ns)
	return ns
}

// Cap reports how many nodes the list owns, handed out or free.
func (ns *Nodes[T]) Cap() int { return ns.made }

// Out reports how many of the list's nodes are not on it, counted by
// walking it: 0 once every queue drawing from it is empty.
func (ns *Nodes[T]) Out() int {
	n := ns.made
	for f := ns.free; f != nil; f = f.next {
		n--
	}
	return n
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
	if ns.free == nil {
		slab := make([]node[T], nodeSlab)
		for i := range slab[:nodeSlab-1] {
			slab[i].next = &slab[i+1]
		}
		ns.free, ns.made = &slab[0], ns.made+nodeSlab
	}
	n := ns.free
	ns.free, n.v, n.next = n.next, v, nil
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
	q.nodes.free = n
	return v
}
