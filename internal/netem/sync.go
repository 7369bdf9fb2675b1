package netem

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler-aware synchronization primitives. Simulation goroutines must
// never block in plain channel operations, sync.Cond waits or contended
// mutexes that are held across virtual-time waits: the scheduler cannot
// see those blocks, so it would either stall or advance time while work
// is still pending. These types report their blocked/runnable
// transitions to the Clock instead.

// Cond is a condition variable whose Wait parks the goroutine in the
// scheduler, optionally bounded by a virtual-time deadline. Like
// sync.Cond, the caller must hold L around Wait and state changes;
// Broadcast may be called with or without L held (holding it avoids
// missed wake-ups, as usual).
type Cond struct {
	clock *Clock
	// L is the lock guarding the condition.
	L sync.Locker
	// waiters is guarded by the scheduler lock; nwait mirrors its
	// length so Broadcast can skip the scheduler lock when nobody
	// waits (the overwhelmingly common case on hot data paths).
	waiters []*waiter
	nwait   atomic.Int32
}

// NewCond returns a Cond parking on clock, guarded by l.
func NewCond(clock *Clock, l sync.Locker) *Cond {
	return &Cond{clock: clock, L: l}
}

// Wait parks until Broadcast. L must be held; it is released while
// parked and re-acquired before returning.
func (cd *Cond) Wait() { cd.WaitVT(noDeadline) }

// WaitDeadline parks until Broadcast or until the encoded deadline
// passes on the virtual clock. It returns true if the deadline fired. A
// zero deadline means no deadline.
func (cd *Cond) WaitDeadline(t time.Time) bool {
	if vt, ok := DeadlineVT(t); ok {
		return cd.WaitVT(vt)
	}
	return cd.WaitVT(noDeadline)
}

// WaitVT parks until Broadcast or virtual time vt (noDeadline for
// none), returning true on timeout. An already-passed deadline returns
// true immediately without releasing L.
func (cd *Cond) WaitVT(vt time.Duration) bool {
	c := cd.clock
	c.mu.Lock()
	if vt != noDeadline && vt <= c.nowLocked() {
		c.mu.Unlock()
		return true
	}
	// Fast path mirroring sleepUntilLocked: a deadline wait that no
	// other goroutine can beat (nothing ready, no earlier timer) is
	// just a clock advance — the wait "times out" in place, and the
	// caller's loop re-checks its condition. This is the hot pattern
	// of a reader waiting out a segment's propagation delay.
	if vt != noDeadline && c.active == 1 && c.readyLen() == 0 &&
		(c.timers.Len() == 0 || c.timers[0].at > vt) {
		c.now.Store(int64(vt))
		c.mu.Unlock()
		return true
	}
	w := c.newWaiter()
	if vt != noDeadline {
		w.at = vt
		w.timed = true
		heap.Push(&c.timers, w)
	}
	w.cond = cd
	cd.waiters = append(cd.waiters, w)
	cd.nwait.Store(int32(len(cd.waiters)))
	// Registering under the scheduler lock is what makes the wait
	// atomic with the condition check: a Broadcast needs the scheduler
	// lock, which we hold until the waiter is listed.
	return c.park(w, cd.L)
}

// remove drops a waiter from the wait list (timer fired before any
// broadcast). Called with the scheduler lock held; lists are short.
func (cd *Cond) remove(w *waiter) {
	for i, q := range cd.waiters {
		if q == w {
			cd.waiters = append(cd.waiters[:i], cd.waiters[i+1:]...)
			cd.nwait.Store(int32(len(cd.waiters)))
			return
		}
	}
}

// WakeAt ensures every current waiter wakes no later than virtual time
// vt without readying it immediately: its wake-up becomes a timer at vt
// (or stays earlier). Waiters woken this way observe a "timeout" from
// WaitVT, so WakeAt is only for loop-recheck waits that re-evaluate
// their condition on every wake — the pipe uses it so a reader parked on
// an empty pipe wakes exactly at a pushed segment's arrival time instead
// of waking at push time just to park again until arrival.
func (cd *Cond) WakeAt(vt time.Duration) {
	if cd.nwait.Load() == 0 {
		return
	}
	c := cd.clock
	c.mu.Lock()
	for _, w := range cd.waiters {
		if w.woken || (w.timed && w.at <= vt) {
			continue
		}
		w.at = vt
		if w.timed {
			heap.Fix(&c.timers, w.heapIndex)
		} else {
			w.timed = true
			heap.Push(&c.timers, w)
		}
	}
	c.mu.Unlock()
}

// Broadcast readies every current waiter. Woken goroutines run when the
// caller next parks, in wait order.
func (cd *Cond) Broadcast() {
	if cd.nwait.Load() == 0 {
		// No one is parked. A goroutine that is merely about to park
		// registers under the scheduler lock before releasing L, and
		// every waker observes that registration, so this unlocked
		// check cannot lose a wake-up.
		return
	}
	c := cd.clock
	c.mu.Lock()
	for i, w := range cd.waiters {
		w.cond = nil
		c.readyLocked(w)
		cd.waiters[i] = nil
	}
	cd.waiters = cd.waiters[:0]
	cd.nwait.Store(0)
	c.mu.Unlock()
}

// Mutex is a scheduler-aware mutual-exclusion lock. Use it (instead of
// sync.Mutex) whenever the critical section can park in a scheduler
// wait — e.g. write paths that block on shaped-connection backpressure —
// so that contending goroutines release their run token while queued.
type Mutex struct {
	clock  *Clock
	mu     sync.Mutex
	cond   *Cond
	locked bool
}

// NewMutex returns an unlocked Mutex parking on clock.
func NewMutex(clock *Clock) *Mutex {
	m := &Mutex{clock: clock}
	m.cond = NewCond(clock, &m.mu)
	return m
}

// Lock acquires the mutex, parking in the scheduler while contended.
func (m *Mutex) Lock() {
	m.mu.Lock()
	for m.locked {
		m.cond.Wait()
	}
	m.locked = true
	m.mu.Unlock()
}

// TryLock acquires the mutex without parking; false means contended.
// It is the form event callbacks must use: a callback runs on the
// dispatching driver and may not release a run token it doesn't
// hold.
func (m *Mutex) TryLock() bool {
	m.mu.Lock()
	if m.locked {
		m.mu.Unlock()
		return false
	}
	m.locked = true
	m.mu.Unlock()
	return true
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	m.locked = false
	m.mu.Unlock()
	m.cond.Broadcast()
}

// WaitGroup is a scheduler-aware sync.WaitGroup replacement.
type WaitGroup struct {
	clock *Clock
	mu    sync.Mutex
	cond  *Cond
	n     int
}

// NewWaitGroup returns a WaitGroup parking on clock.
func NewWaitGroup(clock *Clock) *WaitGroup {
	wg := &WaitGroup{clock: clock}
	wg.cond = NewCond(clock, &wg.mu)
	return wg
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	done := wg.n <= 0
	wg.mu.Unlock()
	if done {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	for wg.n > 0 {
		wg.cond.Wait()
	}
	wg.mu.Unlock()
}

// Chan is a scheduler-aware FIFO queue standing in for Go channels in
// simulation code: sends and receives that would block park in the
// scheduler instead.
type Chan[T any] struct {
	clock  *Clock
	mu     sync.Mutex
	cond   *Cond
	buf    []T
	cap    int // <= 0 means unbounded
	closed bool
}

// NewChan returns a queue with the given capacity (<= 0: unbounded).
func NewChan[T any](clock *Clock, capacity int) *Chan[T] {
	ch := &Chan[T]{clock: clock, cap: capacity}
	ch.cond = NewCond(clock, &ch.mu)
	return ch
}

// Send enqueues v, parking while the queue is full. It returns false if
// the queue is (or becomes) closed.
func (ch *Chan[T]) Send(v T) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for ch.cap > 0 && len(ch.buf) >= ch.cap && !ch.closed {
		ch.cond.Wait()
	}
	if ch.closed {
		return false
	}
	ch.buf = append(ch.buf, v)
	ch.cond.Broadcast()
	return true
}

// TrySend enqueues v without parking; false means full or closed.
func (ch *Chan[T]) TrySend(v T) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed || (ch.cap > 0 && len(ch.buf) >= ch.cap) {
		return false
	}
	ch.buf = append(ch.buf, v)
	ch.cond.Broadcast()
	return true
}

// Recv dequeues the next value, parking while empty. ok is false when
// the queue is closed and drained.
func (ch *Chan[T]) Recv() (v T, ok bool) {
	v, ok, _ = ch.recv(noDeadline)
	return v, ok
}

// RecvTimeout is Recv bounded by a virtual duration from now.
func (ch *Chan[T]) RecvTimeout(d time.Duration) (v T, ok bool, timedOut bool) {
	return ch.recv(ch.clock.Now() + d)
}

func (ch *Chan[T]) recv(vt time.Duration) (v T, ok bool, timedOut bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for len(ch.buf) == 0 {
		if ch.closed {
			return v, false, false
		}
		if ch.cond.WaitVT(vt) {
			return v, false, true
		}
	}
	v = ch.buf[0]
	ch.buf = ch.buf[1:]
	ch.cond.Broadcast()
	return v, true, false
}

// Len reports the queued element count.
func (ch *Chan[T]) Len() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(ch.buf)
}

// Close marks the queue closed, waking parked senders and receivers.
// Queued values remain receivable.
func (ch *Chan[T]) Close() {
	ch.mu.Lock()
	ch.closed = true
	ch.mu.Unlock()
	ch.cond.Broadcast()
}
