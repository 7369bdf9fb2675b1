package netem

import "time"

// Scheduler-aware synchronization primitives. Simulation goroutines must
// never block in plain channel operations or sync.Cond waits: the
// scheduler cannot see those blocks, so it would either stall or advance
// time while work is still pending. These types report their
// blocked/runnable transitions to the Clock instead.
//
// None of them holds a lock, and nothing in a world needs one: exactly
// one goroutine of a world runs at a time and a park is the only point
// at which another can run, so state changes between two parks are
// atomic. A sync.Mutex here could only ever be uncontended — one that
// had to wait would hang the process, its holder being a coroutine that
// cannot run until the waiter yields — and simlint's nolocks rule keeps
// them out of world packages.

// Cond is a wait list: Wait parks the goroutine in the scheduler until
// Broadcast, and WaitEvent leaves an event callback's continuation in
// its place. A goroutine that checks its condition and then waits
// cannot miss a wake-up, because nothing else runs between the check
// and the park.
type Cond struct {
	clock   *Clock
	waiters []*waiter
	// first is waiters' backing array until a second waiter joins, so a
	// lone waiter costs no allocation. A Cond is not copied once used.
	first [1]*waiter
}

// NewCond returns a Cond parking on clock.
func NewCond(clock *Clock) *Cond {
	return &Cond{clock: clock}
}

// Wait parks until Broadcast.
func (cd *Cond) Wait() { cd.wait(noDeadline, nil) }

// WaitEvent waits until Broadcast. A nil fn parks the calling
// goroutine; any other fn takes its place (see wait), for an event
// callback, which must not park. queued reports that fn was left to
// run later, and that the caller must return.
func (cd *Cond) WaitEvent(fn func()) (queued bool) {
	_, queued = cd.wait(noDeadline, fn)
	return queued
}

// wait is the one wait: until Broadcast or virtual time vt (noDeadline
// for none), parking for a nil fn and queuing fn otherwise, and the
// only place in the package that chooses between the two.
//
// An already-passed deadline times out at once, and so does one that
// nothing else can beat (Clock.advanceInPlace for a goroutine,
// Clock.advanceIdle for an event): the wait "times out" in place and
// the caller's loop re-checks its condition. That is the hot pattern of
// a reader waiting out a segment's propagation delay.
//
// Where a goroutine would park, a non-nil fn takes its place — on the
// wait list, and in the timer heap under the deadline — and wait
// reports queued: fn then runs inline where the goroutine would have
// resumed, from the run queue after a Broadcast, or at the deadline or
// a WakeAt instant. A waiting fn is a waiter like any other, with the
// sequence number its park would have had, so whatever it does happens
// when and in the order the woken goroutine's code would have. On a
// closed clock fn is dropped, as EventAt drops an arm: wait reports
// queued and fn never runs. A parking wait on a closed clock reaches
// Clock.refuse.
func (cd *Cond) wait(vt time.Duration, fn func()) (timedOut, queued bool) {
	c := cd.clock
	if fn != nil && c.closed {
		return false, true // dropped, as EventAt drops an arm
	}
	if vt != noDeadline && (vt <= c.Now() || (fn != nil || c.active == 1) && c.advanceIdle(vt)) {
		return true, false
	}
	w := c.newWaiter()
	w.fn = fn
	if vt != noDeadline {
		c.arm(w, vt)
	}
	w.cond = cd
	if cd.waiters == nil {
		cd.waiters = cd.first[:0]
	}
	cd.waiters = append(cd.waiters, w)
	if fn != nil {
		return false, true
	}
	return c.park(w), false
}

// remove drops a waiter from the wait list (timer fired before any
// broadcast); lists are short.
func (cd *Cond) remove(w *waiter) {
	for i, q := range cd.waiters {
		if q == w {
			cd.waiters = append(cd.waiters[:i], cd.waiters[i+1:]...)
			return
		}
	}
}

// WakeAt ensures every current waiter wakes no later than virtual time
// vt without readying it immediately: its wake-up becomes a timer at vt
// (or stays earlier). Waiters woken this way observe a "timeout" from
// Cond.wait, so WakeAt is only for loop-recheck waits that re-evaluate
// their condition on every wake — the pipe uses it so a reader parked on
// an empty pipe wakes exactly at a pushed segment's arrival time instead
// of waking at push time just to park again until arrival.
func (cd *Cond) WakeAt(vt time.Duration) {
	c := cd.clock
	if c.closed {
		return // the heap is gone; nobody waits on a closed clock
	}
	for _, w := range cd.waiters {
		if w.woken || (w.timed && w.at <= vt) {
			continue
		}
		if w.timed {
			w.at = vt
			c.timers.fix(w.heapIndex, w)
		} else {
			c.arm(w, vt)
		}
	}
}

// Broadcast readies every current waiter. Woken goroutines run when the
// caller next parks, in wait order.
func (cd *Cond) Broadcast() {
	for i, w := range cd.waiters {
		w.cond = nil
		cd.clock.makeReady(w)
		cd.waiters[i] = nil
	}
	cd.waiters = cd.waiters[:0]
}

// Mutex is a mutual-exclusion lock for critical sections that park —
// write paths that block on shaped-connection backpressure — so that
// contending goroutines release their run token while queued. A section
// that never parks needs no lock at all. It is an owner flag over a wait
// list, and its wake order is part of every schedule: Unlock readies
// every waiter in wait order, the first of them to run takes the lock,
// and a goroutine that is already running may take it before any of
// them (the rest find it held and queue again).
type Mutex struct {
	cond   Cond
	locked bool
}

// NewMutex returns an unlocked Mutex parking on clock.
func NewMutex(clock *Clock) *Mutex {
	return &Mutex{cond: Cond{clock: clock}}
}

// LockEvent takes the mutex and returns true, parking in the scheduler
// while it is held for a nil fn; any other fn, for an event callback,
// is queued where the lock would park (Cond.WaitEvent), and LockEvent
// returns false: fn calls LockEvent again, as a woken lock loops.
func (m *Mutex) LockEvent(fn func()) bool {
	for m.locked {
		if _, queued := m.cond.wait(noDeadline, fn); queued {
			return false
		}
	}
	m.locked = true
	return true
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	m.locked = false
	m.cond.Broadcast()
}

// WaitGroup is a scheduler-aware sync.WaitGroup replacement.
type WaitGroup struct {
	cond Cond
	n    int
}

// NewWaitGroup returns a WaitGroup parking on clock.
func NewWaitGroup(clock *Clock) *WaitGroup {
	return &WaitGroup{cond: Cond{clock: clock}}
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n <= 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	for wg.n > 0 {
		wg.cond.Wait()
	}
}

// Chan is a scheduler-aware FIFO queue standing in for Go channels in
// simulation code: sends and receives that would block park in the
// scheduler instead.
type Chan[T any] struct {
	cond Cond
	// buf is head-indexed like Clock.ready: recv advances bufHead and
	// the backing array is reused, instead of re-slicing capacity away
	// value by value.
	buf     []T
	bufHead int
	cap     int // <= 0 means unbounded
	closed  bool
}

// NewChan returns a queue with the given capacity (<= 0: unbounded).
func NewChan[T any](clock *Clock, capacity int) *Chan[T] {
	return &Chan[T]{cond: Cond{clock: clock}, cap: capacity}
}

// full reports whether a bounded queue is at capacity.
func (ch *Chan[T]) full() bool { return ch.cap > 0 && ch.Len() >= ch.cap }

// push appends v and wakes parked receivers.
func (ch *Chan[T]) push(v T) {
	ch.buf, ch.bufHead = Compact(ch.buf, ch.bufHead, 1)
	ch.buf = append(ch.buf, v)
	ch.cond.Broadcast()
}

// Compact readies the head-indexed queue q[head:] for an append of
// extra elements. A queue that is never quite drained would otherwise
// grow by its dead prefix for ever, so when the append would outgrow
// the backing array and at least half of it is dead, the live elements
// move to the front first. It returns the queue and its new head.
func Compact[T any](q []T, head, extra int) ([]T, int) {
	if n := len(q); n+extra > cap(q) && head > 0 && head*2 >= n {
		live := copy(q, q[head:])
		clear(q[live:])
		return q[:live], 0
	}
	return q, head
}

// Send enqueues v, parking while the queue is full. It returns false if
// the queue is (or becomes) closed.
func (ch *Chan[T]) Send(v T) bool {
	for ch.full() && !ch.closed {
		ch.cond.Wait()
	}
	if ch.closed {
		return false
	}
	ch.push(v)
	return true
}

// TrySend enqueues v without parking; false means full or closed.
func (ch *Chan[T]) TrySend(v T) bool {
	if ch.closed || ch.full() {
		return false
	}
	ch.push(v)
	return true
}

// Recv dequeues the next value, parking while empty. ok is false when
// the queue is closed and drained.
func (ch *Chan[T]) Recv() (v T, ok bool) {
	v, ok, _ = ch.RecvEvent(nil)
	return v, ok
}

// RecvEvent is Recv for an event callback, which must not park: it
// returns done with what Recv would have returned, or, where Recv would
// park, queues again in the parked receiver's place (Cond.WaitEvent) and
// returns done false; again calls RecvEvent once more. With a nil again
// it is Recv.
func (ch *Chan[T]) RecvEvent(again func()) (v T, ok, done bool) {
	v, ok, _, done = ch.RecvUntilEvent(noDeadline, again)
	return v, ok, done
}

// RecvUntilEvent is RecvEvent bounded by the virtual instant vt, the one
// receive path: timedOut once vt passes with the queue still empty. The
// deadline is absolute, so again's call with the same vt keeps the
// first call's bound. A nil again parks, any other queues where the park
// would be (Cond.wait).
func (ch *Chan[T]) RecvUntilEvent(vt time.Duration, again func()) (v T, ok, timedOut, done bool) {
	for ch.Len() == 0 {
		if ch.closed {
			return v, false, false, true
		}
		timedOut, queued := ch.cond.wait(vt, again)
		if queued {
			return v, false, false, false
		}
		if timedOut {
			return v, false, true, true
		}
	}
	var zero T
	v = ch.buf[ch.bufHead]
	ch.buf[ch.bufHead] = zero
	ch.bufHead++
	if ch.bufHead == len(ch.buf) {
		ch.buf = ch.buf[:0]
		ch.bufHead = 0
	}
	ch.cond.Broadcast()
	return v, true, false, true
}

// Len reports the queued element count.
func (ch *Chan[T]) Len() int { return len(ch.buf) - ch.bufHead }

// Close marks the queue closed, waking parked senders and receivers.
// Queued values remain receivable.
func (ch *Chan[T]) Close() {
	ch.closed = true
	ch.cond.Broadcast()
}
