package netem

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the discrete-event scheduler that is the time
// substrate of the simulation (see DESIGN.md). Virtual time does not
// track wall time at all: it only moves when every registered simulation
// goroutine is parked in a scheduler wait, at which point the clock
// jumps straight to the earliest pending timer and wakes its owner. A
// campaign therefore runs as fast as the CPU can execute it, and —
// because exactly one simulation goroutine executes at a time and all
// wake-ups are ordered deterministically — identical seeds produce
// bit-identical results.

// Epoch anchors the time.Time encoding of virtual deadlines: a virtual
// instant vt is encoded as Epoch.Add(vt). It is deliberately placed far
// in the future so that a stray wall-clock deadline (time.Now().Add(d))
// decodes as "already expired" and fails fast instead of hanging.
var Epoch = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// noDeadline marks waits without a timeout.
const noDeadline = time.Duration(-1)

// waiter is one parked simulation goroutine (or one not-yet-started
// goroutine queued by Go). Waiters are pooled: wake-up is a send on a
// reusable buffered channel rather than a close, and every structure
// holding a waiter (ready queue, timer heap, cond wait lists) drops its
// reference before the wake-up send, so the woken goroutine can recycle
// it.
type waiter struct {
	// ch receives the run-token hand-over; buffered so the dispatcher
	// never blocks.
	ch chan struct{}
	// at is the virtual wake-up time when timed.
	at    time.Duration
	timed bool
	// seq breaks timer ties deterministically (FIFO).
	seq uint64
	// woken marks a waiter already moved to the ready queue or fired.
	woken bool
	// heapIndex is the waiter's position in the timer heap, -1 when
	// not enqueued. Eager removal on wake keeps the heap from
	// accumulating stale entries (a bulk transfer parks millions of
	// times and most waits are resolved by broadcasts, not timers).
	heapIndex int
	// cond is the wait list holding this waiter, if any; a timer fire
	// removes the waiter from it eagerly.
	cond *Cond
	// timedOut reports, after wake-up, that the timer (not a
	// broadcast) fired. Written under the scheduler lock before the
	// wake-up send, read only after it.
	timedOut bool
	// fn, when non-nil, marks this timer entry as an inline event: when
	// it reaches the head of the timer heap the dispatcher runs fn on
	// its own stack instead of waking a goroutine. See Clock.EventAt.
	fn func()
}

// waiterPool recycles waiters; a campaign parks millions of times.
var waiterPool = sync.Pool{
	New: func() any { return &waiter{ch: make(chan struct{}, 1), heapIndex: -1} },
}

// release returns a woken waiter to the pool.
func (w *waiter) release() {
	w.timed = false
	w.woken = false
	w.timedOut = false
	w.cond = nil
	w.fn = nil
	w.heapIndex = -1
	waiterPool.Put(w)
}

// timerHeap orders waiters by (at, seq).
type timerHeap []*waiter

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *timerHeap) Push(x any) {
	w := x.(*waiter)
	w.heapIndex = len(*h)
	*h = append(*h, w)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.heapIndex = -1
	*h = old[:n-1]
	return w
}

// Clock is the discrete-event scheduler shared by one Network. The name
// is historical: it still answers Now, but it also owns the registry of
// simulation goroutines and the event queue that drives virtual time.
//
// The creating goroutine is implicitly registered as the driver; every
// other goroutine participating in the simulation must be spawned via
// Go. Exactly one registered goroutine executes at any moment; the rest
// are parked in scheduler waits (Sleep, Cond, Chan, Mutex, WaitGroup or
// the conn/pipe operations built on them).
type Clock struct {
	mu sync.Mutex
	// now mirrors the current virtual time; it is written only under mu
	// but read lock-free by Now (measurement code calls it constantly).
	now atomic.Int64
	seq uint64
	// active counts registered goroutines currently holding execution
	// rights (1 while the simulation runs, 0 while time advances).
	active int
	// registered counts live simulation goroutines, including the
	// creator.
	registered int
	// ready is the FIFO run queue of woken-but-not-yet-running
	// goroutines. It is a head-indexed ring slice: dispatch advances
	// readyHead instead of re-slicing, so a long campaign reuses one
	// backing array instead of forcing append to reallocate every time
	// the queue refills (the old ready[1:] idiom leaked capacity and
	// showed up as ~5% of all allocations in a contention sweep).
	ready     []*waiter
	readyHead int
	timers    timerHeap
}

// NewClock returns a fresh scheduler with the calling goroutine
// registered as its driver.
func NewClock() *Clock {
	return &Clock{active: 1, registered: 1}
}

// Now returns the current virtual time as an offset from clock start.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Registered reports the number of live simulation goroutines (including
// the driver). The invariant suite samples it at quiescent points to
// detect goroutine leaks: a campaign that spawns per-transfer goroutines
// must see them exit once its conns are closed and drained.
func (c *Clock) Registered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registered
}

// nowLocked reads the virtual time with the scheduler lock held.
func (c *Clock) nowLocked() time.Duration { return time.Duration(c.now.Load()) }

// newWaiter fetches a pooled waiter; the scheduler lock must be held.
func (c *Clock) newWaiter() *waiter {
	c.seq++
	w := waiterPool.Get().(*waiter)
	w.seq = c.seq
	return w
}

// park releases the caller's run token and blocks until the dispatcher
// hands it back, then recycles the waiter and reports whether its timer
// fired. The scheduler lock must be held; park unlocks it.
func (c *Clock) park(w *waiter) (timedOut bool) {
	c.active--
	if c.active < 0 {
		c.mu.Unlock()
		panic("netem: scheduler wait from an unregistered goroutine — spawn simulation goroutines with Clock.Go")
	}
	c.dispatchLocked()
	c.mu.Unlock()
	<-w.ch
	timedOut = w.timedOut
	w.release()
	return timedOut
}

// readyLen reports the number of queued runnable goroutines.
func (c *Clock) readyLen() int { return len(c.ready) - c.readyHead }

// dispatchLocked hands the run token to the next goroutine: first the
// ready queue (work at the current virtual time), then the earliest
// timer (advancing the clock). Inline events (EventAt) encountered at
// the head of the timer heap are executed on the calling goroutine's
// stack — the scheduler lock is dropped around the callback and the
// loop continues, so a burst of data-plane events costs zero goroutine
// switches. Called with the scheduler lock held and active == 0, or as
// a no-op when another goroutine still runs.
func (c *Clock) dispatchLocked() {
	for c.active == 0 {
		if c.readyLen() > 0 {
			w := c.ready[c.readyHead]
			c.ready[c.readyHead] = nil
			c.readyHead++
			if c.readyHead == len(c.ready) {
				c.ready = c.ready[:0]
				c.readyHead = 0
			}
			c.active++
			w.ch <- struct{}{}
			return
		}
		if c.timers.Len() > 0 {
			w := heap.Pop(&c.timers).(*waiter)
			if w.at > c.nowLocked() {
				c.now.Store(int64(w.at))
			}
			if w.fn != nil {
				fn := w.fn
				w.release()
				// Run the event with the scheduler unlocked so it can
				// use Try* primitives, ready goroutines, or arm further
				// events. active is still 0: event callbacks are not
				// simulation goroutines and must never park (a park
				// panics as an unregistered-goroutine wait).
				c.mu.Unlock()
				fn()
				c.mu.Lock()
				continue
			}
			w.woken = true
			w.timedOut = true
			if w.cond != nil {
				w.cond.remove(w)
				w.cond = nil
			}
			c.active++
			w.ch <- struct{}{}
			return
		}
		if c.registered > 0 {
			panic(fmt.Sprintf(
				"netem: deadlock — all %d simulation goroutines are blocked with no pending timers at virtual t=%v",
				c.registered, c.nowLocked()))
		}
		return
	}
}

// readyLocked appends a waiter to the run queue, removing any pending
// timer entry. The scheduler lock must be held.
func (c *Clock) readyLocked(w *waiter) {
	if w.woken {
		return
	}
	w.woken = true
	if w.heapIndex >= 0 {
		heap.Remove(&c.timers, w.heapIndex)
	}
	c.ready = append(c.ready, w)
}

// Go spawns fn as a registered simulation goroutine. The child does not
// run immediately: it is queued and starts when the current goroutine
// next parks, which keeps execution order deterministic.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	w := c.newWaiter()
	c.registered++
	c.readyLocked(w)
	c.mu.Unlock()
	//simlint:allow rawgo -- Clock.Go is the one place sim goroutines are minted; the waiter is registered under the scheduler lock above, before the OS goroutine starts.
	go func() {
		<-w.ch
		w.release()
		defer c.exit()
		fn()
	}()
}

// exit retires a goroutine spawned by Go.
func (c *Clock) exit() {
	c.mu.Lock()
	c.registered--
	c.active--
	c.dispatchLocked()
	c.mu.Unlock()
}

// Sleep pauses the calling goroutine for a virtual duration. No real
// time passes: the clock jumps when every other goroutine is parked.
func (c *Clock) Sleep(v time.Duration) {
	if v <= 0 {
		return
	}
	c.mu.Lock()
	c.sleepUntilLocked(c.nowLocked() + v)
}

// SleepUntil pauses until the virtual clock reaches vt.
func (c *Clock) SleepUntil(vt time.Duration) {
	c.mu.Lock()
	if vt <= c.nowLocked() {
		c.mu.Unlock()
		return
	}
	c.sleepUntilLocked(vt)
}

// sleepUntilLocked suspends the caller until virtual time vt; the
// scheduler lock must be held and is released.
func (c *Clock) sleepUntilLocked(vt time.Duration) {
	// Fast path: if nothing else can run before vt — no ready
	// goroutines, no earlier (or equal, which would win the seq
	// tie-break) timer or event — advance the clock in place and keep
	// running. Lockstep protocol chains hit this constantly; it saves
	// the full park/dispatch/goroutine-switch round trip.
	if c.active == 1 && c.readyLen() == 0 &&
		(c.timers.Len() == 0 || c.timers[0].at > vt) {
		c.now.Store(int64(vt))
		c.mu.Unlock()
		return
	}
	w := c.newWaiter()
	w.at = vt
	w.timed = true
	heap.Push(&c.timers, w)
	c.park(w)
}

// EventAt schedules fn to run when virtual time reaches vt (or at the
// current instant, if vt has already passed). The callback executes
// inline on whichever goroutine is dispatching at that moment — no
// goroutine is spawned or unparked for it — which makes it the cheap
// way to model pure data-plane events: segment deliveries, paced flush
// passes, SYN arrivals. Ordering is deterministic: events and timers
// share one heap ordered by (at, seq), so two events at the same
// instant fire in registration order.
//
// Contract: fn runs with no scheduler state held and must never park.
// Use the non-parking primitives (TrySend, Mutex.TryLock,
// Conn.TryWriteOwned, Clock.Go, EventAt) inside callbacks; any parking
// wait panics as an unregistered-goroutine wait.
func (c *Clock) EventAt(vt time.Duration, fn func()) {
	c.mu.Lock()
	w := c.newWaiter()
	if now := c.nowLocked(); vt < now {
		vt = now
	}
	w.at = vt
	w.timed = true
	w.fn = fn
	heap.Push(&c.timers, w)
	c.mu.Unlock()
}

// VirtualDeadline converts a virtual timeout (from now) into the
// time.Time encoding used by net.Conn deadlines.
func (c *Clock) VirtualDeadline(v time.Duration) time.Time {
	return Epoch.Add(c.Now() + v)
}

// DeadlineVT decodes a net.Conn deadline into a virtual instant.
// ok is false for the zero time (no deadline).
func DeadlineVT(t time.Time) (vt time.Duration, ok bool) {
	if t.IsZero() {
		return 0, false
	}
	return t.Sub(Epoch), true
}

// Expired reports whether an encoded deadline has passed on the virtual
// clock.
func (c *Clock) Expired(t time.Time) bool {
	vt, ok := DeadlineVT(t)
	return ok && c.Now() >= vt
}
