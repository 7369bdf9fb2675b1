package netem

import (
	"fmt"
	"sync"

	"ptperf/internal/sim"
)

// A BufClass is one kind of buffer the data path leases from its world:
// netem's segment arrays and ByteQueue chunks, tor's wire cells, pt's
// splice and frame arrays. Each world keeps a free list per class on its
// Clock, touched only under the world's run token, so a lease is one pop
// and a return one push. A closing world hands its lists whole, arrays
// and slice, to the class's process-wide reservoir
// (Network.Retire); a world whose list runs dry takes one of them
// as its own, and finds a fresh buffer in the class's token pool only
// when the reservoir is empty too.
//
// The token, a *sync.Pool, names the class wherever a buffer travels
// with its owner's recycling instructions: a ReadSink's and
// TryWriteOwned's pool argument. Clock.Recycle returns a buffer by its
// token; a sink outside the world's code may instead Put it into the
// token itself, and the class's misses draw it from there.
type BufClass struct {
	name  string
	id    int
	pool  sync.Pool
	spare sim.Reservoir[[]*[]byte] // closed worlds' free lists
}

// bufClassMax bounds the registered classes: each clock holds a list
// for every one.
const bufClassMax = 8

// bufClasses lists every class in registration order. It is appended to
// only by package initialisation, before any world runs.
var bufClasses []*BufClass

// NewBufClass registers a class whose fresh buffers newBuf makes. Call
// it from a package-level variable's initialiser.
func NewBufClass(name string, newBuf func() *[]byte) *BufClass {
	if len(bufClasses) == bufClassMax {
		panic(fmt.Sprintf("netem: buffer class %q past the %d a clock holds", name, bufClassMax))
	}
	b := &BufClass{name: name, id: len(bufClasses)}
	b.pool.New = func() any { return newBuf() }
	bufClasses = append(bufClasses, b)
	return b
}

// BufClasses lists the registered classes, in registration order.
func BufClasses() []*BufClass { return bufClasses }

// Name is the class's name in the lease census.
func (b *BufClass) Name() string { return b.name }

// Token is the class's *sync.Pool, which stands for it in a ReadSink's
// and TryWriteOwned's pool argument.
func (b *BufClass) Token() *sync.Pool { return &b.pool }

// bufList is one world's free list of one class, and the count of the
// class's buffers the world has leased and not got back.
type bufList struct {
	free []*[]byte
	out  int
}

// Get leases a buffer of the class from c's world.
func (b *BufClass) Get(c *Clock) *[]byte {
	l := &c.bufs[b.id]
	l.out++
	n := len(l.free) - 1
	if n < 0 {
		free, ok := b.spare.Take()
		if !ok {
			return b.pool.Get().(*[]byte)
		}
		l.free, n = free, len(free)-1
	}
	p := l.free[n]
	l.free[n] = nil
	l.free = l.free[:n]
	return p
}

// Put returns a buffer of the class to c's world.
func (b *BufClass) Put(c *Clock, p *[]byte) {
	l := &c.bufs[b.id]
	l.free = append(l.free, p)
	l.out--
}

// Out counts the class's buffers c's world has leased and not returned.
func (b *BufClass) Out(c *Clock) int { return c.bufs[b.id].out }

// Recycle returns base, handed over with pool as its token (a ReadSink's
// arguments), to the world's list of that class. A pool that is no
// class's token gets base back itself; a nil base or pool is no lease.
func (c *Clock) Recycle(pool *sync.Pool, base *[]byte) {
	if base == nil || pool == nil {
		return
	}
	for _, b := range bufClasses {
		if &b.pool == pool {
			b.Put(c, base)
			return
		}
	}
	pool.Put(base)
}

// Retire hands a stopped world's free buffers and queue nodes, and the
// segments its writers held for the window, to their classes' reservoirs.
func (n *Network) Retire() {
	for _, c := range n.acct.conns {
		if c.holding {
			n.clock.Recycle(c.held.pool, c.held.base)
			c.held, c.holding = seg{}, false
		}
	}
	n.clock.RetireBuffers()
	for _, l := range n.acct.lists {
		l.retire()
	}
}

// RetireBuffers hands the world's buffer lists on (Network.Retire).
func (c *Clock) RetireBuffers() {
	for _, b := range bufClasses {
		l := &c.bufs[b.id]
		if len(l.free) > 0 {
			b.spare.Give(l.free)
		}
		l.free = nil
	}
}
