//go:build go1.23

package netem

import (
	"iter"
	"slices"
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
//
// Simulation goroutines are coroutines of the clock's driver: a park
// switches to the driver's dispatch loop, a wake-up is the driver
// resuming the coroutine, and no second thread is ever woken (DESIGN.md
// "Performance notes"). The build tag lets a go 1.22 module import iter.

// noDeadline marks waits without a timeout.
const noDeadline = time.Duration(-1)

// waiter is one parked simulation goroutine (or one not-yet-started
// goroutine queued by Go). Waiters are recycled on their clock's free
// list: every structure holding a waiter (ready queue, timer heap, cond
// wait lists) drops its reference before the wake-up, so the woken
// goroutine can recycle it.
type waiter struct {
	// co is the coroutine to resume; nil for the driver, whose dispatch
	// loop simply returns when its own waiter comes up.
	co *coro
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
	// broadcast) fired.
	timedOut bool
	// fn, when non-nil, marks this timer entry as an inline event: when
	// it reaches the head of the timer heap the dispatcher runs fn on
	// its own stack instead of waking a goroutine. See Clock.EventAt.
	fn func()
}

// timerHeap is a 4-ary min-heap of waiters ordered by (at, seq), each
// knowing its index. (at, seq) is a total order, so the pop order is the
// same whatever the shape of the heap.
type timerHeap []*waiter

// before reports whether a fires ahead of b.
func before(a, b *waiter) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *timerHeap) push(w *waiter) {
	*h = append(*h, w)
	h.up(len(*h)-1, w)
}

// pop removes and returns the earliest waiter.
func (h *timerHeap) pop() *waiter { return h.remove(0) }

// remove takes the waiter at index i out of the heap.
func (h *timerHeap) remove(i int) *waiter {
	old := *h
	w, last := old[i], old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	w.heapIndex = -1
	if last != w {
		h.fix(i, last)
	}
	return w
}

// fix restores the order around index i, whose slot takes w: the waiter
// already there with a changed at, or the one filling a removal's hole.
func (h timerHeap) fix(i int, w *waiter) {
	if i > 0 && before(w, h[(i-1)/4]) {
		h.up(i, w)
	} else {
		h.down(i, w)
	}
}

// up sifts w from the hole at i toward the root.
func (h timerHeap) up(i int, w *waiter) {
	for i > 0 {
		parent := (i - 1) / 4
		if !before(w, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].heapIndex = i
		i = parent
	}
	h[i] = w
	w.heapIndex = i
}

// down sifts w from the hole at i toward the leaves.
func (h timerHeap) down(i int, w *waiter) {
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, len(h)); c++ {
			if before(h[c], h[least]) {
				least = c
			}
		}
		if !before(h[least], w) {
			break
		}
		h[i] = h[least]
		h[i].heapIndex = i
		i = least
	}
	h[i] = w
	w.heapIndex = i
}

// coro is the execution context of one simulation goroutine, a
// coroutine of the driver. It outlives the function it was minted for
// (a coroutine costs about nine heap objects, and worlds spawn a
// goroutine per SENDME) and lives until its clock shuts down.
type coro struct {
	// resume switches from the driver into the coroutine and returns
	// when it parks or finishes, or panics with what it panicked with;
	// yield, set on the first resume, switches back, and returns false
	// once stop has ended the coroutine. stop is Clock.Shutdown's: it
	// resumes a parked coroutine with that false, lets one that never
	// started go without running anything, and returns when the
	// goroutine has exited.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	// fn is what Go wants run next, start the ready-queue entry for it,
	// born the virtual instant of that Go (the listing of a deadlock or
	// leak report prints it).
	fn    func()
	start *waiter
	born  time.Duration
}

// Clock is the discrete-event scheduler shared by one Network. The name
// is historical: it still answers Now, but it also owns the registry of
// simulation goroutines and the event queue that drives virtual time.
//
// The creating goroutine is implicitly registered as the driver; every
// other goroutine participating in the simulation must be spawned via
// Go. Exactly one registered goroutine executes at any moment; the rest
// are parked in scheduler waits (Sleep, Cond, Chan, Mutex, WaitGroup or
// the conn/pipe operations built on them). Whenever the driver parks it
// dispatches: it runs due events on its own stack and resumes
// coroutines until its own wait is over. The driver also ends the world:
// Shutdown (shutdown.go) stops every coroutine, and until it has run
// each of them is a goroutine the runtime cannot collect.
//
// There is no lock: every field but now belongs to whoever holds the run
// token, a park is the only point at which the token changes hands, and
// the coroutine switch orders memory (DESIGN.md "Blocked/runnable
// accounting").
type Clock struct {
	// now is the current virtual time. It alone is atomic: a campaign's
	// progress monitor reads it from its own goroutine (DESIGN.md
	// "Cross-world isolation").
	now atomic.Int64
	seq uint64
	// active counts registered goroutines currently holding execution
	// rights (1 while the simulation runs, 0 while time advances).
	active int
	// registered counts live simulation goroutines, including the
	// creator.
	registered int
	// cur is the coroutine holding the run token, nil for the driver.
	cur *coro
	// coros is the registry Shutdown walks: every coroutine this clock
	// minted, in mint order. A parked one may be reachable from nothing
	// else (an untimed Cond wait is in no clock structure).
	coros []*coro
	// free holds the finished coroutines, idle until the next Go.
	free []*coro
	// closed is set once Shutdown has begun; listing, during a
	// collecting shutdown, is where each unwinding frame describes
	// itself (shutdown.go).
	closed  bool
	listing *[]Parked
	// ready is the FIFO run queue of woken-but-not-yet-running
	// goroutines. It is a head-indexed ring slice: dispatch advances
	// readyHead instead of re-slicing, so a long campaign reuses one
	// backing array instead of forcing append to reallocate every time
	// the queue refills (the old ready[1:] idiom leaked capacity and
	// showed up as ~5% of all allocations in a contention sweep).
	ready     []*waiter
	readyHead int
	timers    timerHeap
	// spare holds released waiters for newWaiter; a campaign parks
	// millions of times, and only the run token's holder touches it.
	spare []*waiter
	// awaits holds the idle *awaited[T] of the Awaits so far.
	awaits []any
	// bufs holds the world's free list of each buffer class (BufClass),
	// indexed by the class's registration order.
	bufs  [bufClassMax]bufList
	stats Stats
}

// Stats counts what a clock has run: the goroutines it spawned, the
// parks it handed the run token over at, and the inline callbacks it ran
// instead.
type Stats struct {
	// Spawns counts Clock.Go calls that queued a goroutine.
	Spawns uint64
	// Parks counts scheduler waits that released the run token: a
	// simulation goroutine's or the driver's.
	Parks uint64
	// Events counts inline callbacks run from the timer heap: EventAt
	// arms, and event waits (Cond.wait) ended by their deadline or
	// a segment's arrival.
	Events uint64
	// ReadyEvents counts inline callbacks run from the run queue:
	// ReadyEvent arms, and event waits a Broadcast readied.
	ReadyEvents uint64
	// TimersHigh is the timer heap's high-water mark: the most timed
	// waits and events pending at once.
	TimersHigh uint64
}

// Stats returns the clock's counters so far. Counting costs one
// increment per park or event and one compare per timer armed, and it
// schedules nothing.
func (c *Clock) Stats() Stats { return c.stats }

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
// must see them exit once its conns are closed and drained. After
// Shutdown it reads 1.
func (c *Clock) Registered() int { return c.registered }

// newWaiter fetches a waiter from the free list, or makes one.
func (c *Clock) newWaiter() *waiter {
	c.seq++
	var w *waiter
	if n := len(c.spare); n > 0 {
		w, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		w = new(waiter)
	}
	*w = waiter{seq: c.seq, heapIndex: -1}
	return w
}

// release puts a woken waiter on the free list.
func (c *Clock) release(w *waiter) {
	w.co, w.cond, w.fn = nil, nil, nil
	c.spare = append(c.spare, w)
}

// park releases the caller's run token and returns once the dispatcher
// hands it back, then recycles the waiter and reports whether its timer
// fired. It is the only yield point of a world: whatever a goroutine
// does between two parks is atomic to every other one.
func (c *Clock) park(w *waiter) (timedOut bool) {
	c.stats.Parks++
	c.active--
	if c.active < 0 {
		c.refuse(w)
	}
	if co := c.cur; co != nil {
		w.co = co
		if !co.yield(struct{}{}) {
			c.unwind(w)
		}
	} else {
		c.dispatch(w)
	}
	timedOut = w.timedOut
	c.release(w)
	return timedOut
}

// Await is the one park seam of the event forms, for a goroutine or the
// driver: it calls start with a continuation and returns what start
// returned if it is done. Otherwise it parks once, and the continuation
// readies it at the head of the run queue, where it resumes as if parked
// in each of the form's waits in turn. The continuation is bound once,
// with a place for the T it hands over, and kept on its clock for the
// next Await of a T, so Await allocates nothing once as many Awaits of
// a T have been under way at once.
func Await[T any](c *Clock, start func(done func(T, error)) (T, error, bool)) (T, error) {
	var a *awaited[T]
	for i := len(c.awaits) - 1; i >= 0 && a == nil; i-- {
		if a, _ = c.awaits[i].(*awaited[T]); a != nil {
			c.awaits = slices.Delete(c.awaits, i, i+1)
		}
	}
	if a == nil {
		a = new(awaited[T])
		a.done = func(v T, err error) { a.v, a.err = v, err; c.readyFirst(a.w) }
	}
	a.w = c.newWaiter()
	v, err, ok := start(a.done)
	if ok {
		c.release(a.w)
	} else {
		c.park(a.w)
		v, err = a.v, a.err
	}
	a.w, a.v, a.err = nil, *new(T), nil
	c.awaits = append(c.awaits, a)
	return v, err
}

// awaited is an Await's continuation and what it hands over.
type awaited[T any] struct {
	w    *waiter
	done func(T, error)
	v    T
	err  error
}

// readyFirst readies w at the head of the run queue, to run next.
func (c *Clock) readyFirst(w *waiter) {
	if w.woken = true; c.readyHead == 0 {
		c.ready = slices.Insert(c.ready, 0, w)
	} else {
		c.readyHead--
		c.ready[c.readyHead] = w
	}
}

// readyLen reports the number of queued runnable goroutines.
func (c *Clock) readyLen() int { return len(c.ready) - c.readyHead }

// dispatch is the driver's park: it hands the run token to one waiter
// after another — first the ready queue (work at the current virtual
// time), then the earliest timer (advancing the clock) — resuming its
// coroutine until that parks or finishes, and returns when own, the
// driver's waiter, comes up. Inline events (EventAt) at the head of the
// timer heap run here, on the driver's stack, so a burst of data-plane
// events costs zero switches. Called with active == 0. A panic out of
// here (a simulation goroutine's, an event callback's, the deadlock
// report) leaves the clock consistent for the driver's deferred
// World.Close: cur is nil again and Registered has stopped counting a
// goroutine that died.
func (c *Clock) dispatch(own *waiter) {
	for {
		var w *waiter
		switch {
		case c.readyLen() > 0:
			w = c.ready[c.readyHead]
			c.ready[c.readyHead] = nil
			c.readyHead++
			if c.readyHead == len(c.ready) {
				c.ready = c.ready[:0]
				c.readyHead = 0
			}
			if w.fn != nil {
				fn := w.fn
				c.release(w)
				c.stats.ReadyEvents++
				fn() // a ReadyEvent or a readied event wait: see EventAt for the contract
				continue
			}
		case len(c.timers) > 0:
			w = c.timers.pop()
			if w.at > c.Now() {
				c.now.Store(int64(w.at))
			}
			if w.cond != nil {
				w.cond.remove(w) // a wait whose deadline came first
				w.cond = nil
			}
			if w.fn != nil {
				fn := w.fn
				c.release(w)
				c.stats.Events++
				// The event may use Try* primitives, ready goroutines or
				// arm further events. active is still 0: event callbacks
				// are not simulation goroutines and must never park (a
				// park panics as an unregistered-goroutine wait).
				fn()
				continue
			}
			w.woken = true
			w.timedOut = true
		default:
			c.deadlock(own)
		}
		c.active++
		co := w.co
		if co == nil {
			if w != own {
				panic("netem: two plain goroutines are parked on one clock — all but the driver must be spawned with Clock.Go")
			}
			return
		}
		c.cur = co
		co.resume()
		c.cur = nil
	}
}

// makeReady appends a waiter to the run queue, removing any pending
// timer entry. A closed clock runs nobody: there it only marks the
// waiter woken, so a Broadcast after Shutdown (World.Close aborts
// conns) drops an event wait left on a wait list (Cond.WaitEvent)
// instead of queuing its continuation.
func (c *Clock) makeReady(w *waiter) {
	if w.woken {
		return
	}
	w.woken = true
	if w.heapIndex >= 0 {
		c.timers.remove(w.heapIndex)
	}
	if !c.closed {
		c.ready = append(c.ready, w)
	}
}

// Go spawns fn as a registered simulation goroutine. The child does not
// run immediately: it is queued and starts when the current goroutine
// next parks, which keeps execution order deterministic.
//
// On a clock that has shut down fn is dropped: it would never run.
func (c *Clock) Go(fn func()) {
	if c.closed {
		return
	}
	w := c.newWaiter()
	c.registered++
	c.stats.Spawns++
	if n := len(c.free); n > 0 {
		w.co, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w.co = c.newCoro()
	}
	w.co.fn, w.co.start, w.co.born = fn, w, c.Now()
	c.makeReady(w)
}

// newCoro mints a coroutine that runs the function Go handed it, then
// idles on the free list until the next one, for as long as the clock
// lives: Shutdown stops it wherever it is.
func (c *Clock) newCoro() *coro {
	co := new(coro)
	co.resume, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		defer func() {
			//simlint:allow norecover -- the one place a world's end is caught: a frame Shutdown unwinds panics with worldEnded, which stops here so the goroutine exits; anything else is re-raised and reaches the driver.
			p := recover()
			if _, ended := p.(worldEnded); ended || p == nil {
				return
			}
			// The driver runs next, out of its resume or stop.
			c.cur = nil
			c.registered--
			panic(p)
		}()
		for {
			c.release(co.start)
			co.start = nil
			co.fn()
			co.fn = nil
			c.registered--
			c.active--
			c.free = append(c.free, co)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	c.coros = append(c.coros, co)
	return co
}

// Sleep pauses the calling goroutine for a virtual duration. No real
// time passes: the clock jumps when every other goroutine is parked.
func (c *Clock) Sleep(v time.Duration) {
	if v > 0 {
		c.SleepUntil(c.Now() + v)
	}
}

// SleepEvent is Sleep's event form. done reports the sleep over, at once
// or in place as Sleep's passes (advanceIdle); otherwise fn, which must
// not be nil, is armed where the sleeper would have woken (EventAt), in
// its park's place in the order.
func (c *Clock) SleepEvent(d time.Duration, fn func()) (done bool) {
	if vt := c.Now() + d; d > 0 && !c.advanceIdle(vt) {
		c.EventAt(vt, fn)
		return false
	}
	return true
}

// SleepUntil pauses until the virtual clock reaches vt.
func (c *Clock) SleepUntil(vt time.Duration) {
	if vt <= c.Now() || c.advanceInPlace(vt) {
		return
	}
	w := c.newWaiter()
	c.arm(w, vt)
	c.park(w)
}

// advanceInPlace is the fast path of every timed wait: if nothing else
// can run before vt — no ready goroutines, no earlier (or equal, which
// would win the seq tie-break) timer or event — it moves the clock to vt
// and the caller keeps running. Lockstep protocol chains hit this
// constantly; it saves the full park/dispatch/goroutine-switch round
// trip.
func (c *Clock) advanceInPlace(vt time.Duration) bool {
	return c.active == 1 && c.advanceIdle(vt)
}

// advanceIdle is advanceInPlace for whoever holds the run token, a
// goroutine or an event callback (Cond.WaitEvent): an event runs on the
// dispatching driver with active at 0, and it too is the only thing
// that can run before vt when the run queue is empty and no timer is
// due by then.
func (c *Clock) advanceIdle(vt time.Duration) bool {
	if c.readyLen() != 0 || (len(c.timers) != 0 && c.timers[0].at <= vt) {
		return false
	}
	c.now.Store(int64(vt))
	return true
}

// EventAt schedules fn to run when virtual time reaches vt (or at the
// current instant, if vt has already passed). The callback executes
// inline on the driver while it dispatches — no goroutine is spawned or
// unparked for it — which makes it the cheap way to model pure
// data-plane events: segment deliveries, paced flush passes, SYN
// arrivals. Ordering is deterministic: events and timers
// share one heap ordered by (at, seq), so two events at the same
// instant fire in registration order.
//
// Contract: fn must never park. Inside callbacks use the event forms,
// which leave a continuation where they would park (Mutex.LockEvent,
// Chan.RecvEvent, Conn.ReadEvent, Conn.WriteEvent), the refusals that
// never wait (Chan.TrySend, Conn.TryWrite, Conn.TryWriteOwned), further
// EventAt arms, and Clock.Go for work that must park; any parking wait
// panics as an unregistered-goroutine wait.
// On a clock that has shut down fn is dropped.
func (c *Clock) EventAt(vt time.Duration, fn func()) {
	if c.closed {
		return
	}
	w := c.newWaiter()
	w.fn = fn
	c.arm(w, max(vt, c.Now()))
}

// arm puts w in the timer heap at vt and keeps the heap's high-water
// mark.
func (c *Clock) arm(w *waiter, vt time.Duration) {
	w.at, w.timed = vt, true
	c.timers.push(w)
	c.stats.TimersHigh = max(c.stats.TimersHigh, uint64(len(c.timers)))
}

// ReadyEvent runs fn inline from the run queue, where a goroutine woken
// or spawned by Go now would run: after those already woken, before any
// timer or event fires, in place of a reader a Broadcast would wake
// (pipe.wakeSink) or of a goroutine that would run once without parking.
// Like an EventAt callback, fn must never park; on a clock that has shut
// down it is dropped.
func (c *Clock) ReadyEvent(fn func()) {
	if c.closed {
		return
	}
	w := c.newWaiter()
	w.fn, w.woken = fn, true
	c.ready = append(c.ready, w)
}
