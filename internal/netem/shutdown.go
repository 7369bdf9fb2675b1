//go:build go1.23

package netem

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// This file ends a world (DESIGN.md "World lifetime"). A clock that is
// merely dropped keeps every parked simulation goroutine, and the heap
// each one pins, until the process exits: a parked coroutine is a
// goroutine the runtime will never collect. Shutdown stops them all.

// worldEnded is what a frame panics with when its park learns that the
// world has ended. Only newCoro's body recovers it, so the frame unwinds
// through its own deferred calls and the goroutine under it exits.
// (runtime.Goexit would unwind the same way, but iter.Pull re-raises a
// coroutine's Goexit in the caller of stop, and that is the driver.)
type worldEnded struct{}

// Shutdown ends the world: every simulation goroutine that has not
// returned is stopped where it is parked, newest coroutine first, and
// unwinds through its deferred calls, so conns close and leased buffers
// go back; one that never started goes without running its function.
// Pending timers and events, the ready queue and the free list are
// dropped, and Registered reads 1 afterwards. Only the driver may call
// it, and only when it is the one running (it always is: a simulation
// goroutine runs only while the driver is inside a wait).
//
// What a deferred call does while its frame unwinds is cut short the
// same way: a scheduler wait unwinds at once, Go and EventAt are
// dropped. A panic other than the unwinding itself still reaches the
// caller, after the remaining goroutines have been stopped. On a closed
// clock Now and Registered still answer, Shutdown is a no-op and a wait
// that would park panics with "the world is closed".
func (c *Clock) Shutdown() { c.shutdown(nil) }

// ShutdownListing is Shutdown that also reports, in the order they were
// stopped, which goroutines it found parked and on what. Symbols are
// resolved only when an entry is printed.
func (c *Clock) ShutdownListing() []Parked {
	var ps []Parked
	c.shutdown(&ps)
	return ps
}

func (c *Clock) shutdown(listing *[]Parked) {
	if c.closed {
		return
	}
	if c.cur != nil {
		panic("netem: Shutdown from a simulation goroutine — only the driver ends its world")
	}
	c.closed = true
	c.active = 0 // see park
	c.listing = listing
	c.stopRest()
}

// stopRest stops the coroutines still on the registry and then empties
// the clock, so that a retained Clock.Now closure pins nothing else. A
// frame that panics while unwinding sends its panic through here: the
// deferred call finishes the walk before the panic goes on to the
// driver's caller.
func (c *Clock) stopRest() {
	defer func() {
		if len(c.coros) > 0 {
			c.stopRest()
			return
		}
		c.cur, c.listing = nil, nil
		// An event wait (Cond.WaitEvent) is dropped as EventAt arms are.
		// A timed one leaves the heap with it, marked woken; an untimed
		// one stays on its wait list, where a later Broadcast marks it
		// woken and queues nothing (makeReady) and WakeAt leaves it.
		for _, w := range c.timers {
			w.woken, w.heapIndex = true, -1
		}
		c.coros, c.free, c.ready, c.readyHead, c.timers, c.spare = nil, nil, nil, 0, nil, nil
		c.registered = 1
	}()
	for n := len(c.coros); n > 0; n = len(c.coros) {
		co := c.coros[n-1]
		c.coros[n-1] = nil
		c.coros = c.coros[:n-1]
		c.cur = co
		co.stop()
	}
}

// refuse is park without a run token to give up. Shutdown leaves active
// at 0 so that every wait on a closed clock ends up here and an open one
// pays no second test.
func (c *Clock) refuse(w *waiter) {
	c.active = 0
	if !c.closed {
		panic("netem: scheduler wait from an unregistered goroutine — spawn simulation goroutines with Clock.Go")
	}
	c.detach(w)
	if c.cur != nil {
		// A deferred call of a frame Shutdown is unwinding: cut it short
		// and let the next deferred call run.
		panic(worldEnded{})
	}
	panic("netem: scheduler wait on a clock that has shut down — the world is closed")
}

// unwind is the end of a park in a world that has ended: the frame adds
// itself to the listing if one is being collected, and the panic takes
// it out through its deferred calls.
func (c *Clock) unwind(w *waiter) {
	if c.listing != nil {
		p := Parked{Born: c.cur.born, at: w.at, timed: w.timed, onCond: w.cond != nil, woken: w.woken}
		p.depth = runtime.Callers(2, p.pcs[:])
		*c.listing = append(*c.listing, p)
	}
	c.detach(w)
	panic(worldEnded{})
}

// detach takes a waiter that will never wake out of its wait list and
// the timer heap. A Cond is reachable from no clock structure, and a
// Broadcast after the end (World.Close aborts conns) must find nobody to
// ready.
func (c *Clock) detach(w *waiter) {
	if w.cond != nil {
		w.cond.remove(w)
		w.cond = nil
	}
	if w.heapIndex >= 0 {
		c.timers.remove(w.heapIndex)
	}
}

// deadlock is dispatch with nothing left to run: it shuts the world down
// to learn who is parked on what, which nothing records while the world
// runs, and panics on the driver with the listing. own is the driver's
// wait.
func (c *Clock) deadlock(own *waiter) {
	n, now := c.registered, c.Now()
	driver := Parked{at: own.at, timed: own.timed, onCond: own.cond != nil}
	panic(fmt.Sprintf(
		"netem: deadlock — all %d simulation goroutines are blocked with no pending timers at virtual t=%v\n  the driver (this panic's stack): %s\n%s",
		n, now, driver.wait(), FormatParked(c.ShutdownListing())))
}

// Parked is one simulation goroutine a shutdown found parked.
type Parked struct {
	// Born is the virtual instant of the Go that spawned it.
	Born time.Duration
	// The wait: a plain sleep until at, an Await, a Cond wait without
	// deadline, or a Cond wait bounded by at (timed and onCond both set);
	// woken if it had been readied and had yet to be resumed.
	at                   time.Duration
	timed, onCond, woken bool
	// pcs[:depth] is the goroutine's stack at the park, innermost first.
	pcs   [24]uintptr
	depth int
}

func (p Parked) wait() string {
	switch {
	case p.woken:
		return "runnable"
	case !p.onCond && !p.timed:
		return "awaiting an event form (Await)"
	case !p.onCond:
		return fmt.Sprintf("sleep until t=%v", p.at)
	case p.timed:
		return fmt.Sprintf("cond wait, deadline t=%v", p.at)
	}
	return "cond wait, no deadline"
}

// parkedFrames bounds the callers printed per goroutine.
const parkedFrames = 4

// String renders the wait and the innermost callers: netem's own frames
// between the park and the code that waited are trimmed (that code is
// what a reader wants to see first), and so is the coroutine's root.
func (p Parked) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spawned at t=%v: %s", p.Born, p.wait())
	frames := runtime.CallersFrames(p.pcs[:p.depth])
	for kept, more := 0, p.depth > 0; more && kept < parkedFrames; {
		var f runtime.Frame
		f, more = frames.Next()
		if strings.Contains(f.Function, "netem.(*Clock).newCoro") {
			break
		}
		if kept == 0 && netemFrame(f) {
			continue
		}
		fmt.Fprintf(&b, "\n      %s %s:%d", f.Function, f.File, f.Line)
		kept++
	}
	return b.String()
}

// netemFrame reports whether f is this package's own, non-test code.
func netemFrame(f runtime.Frame) bool {
	return strings.Contains(f.Function, "/internal/netem.") && !strings.HasSuffix(f.File, "_test.go")
}

// parkedListed bounds the goroutines FormatParked prints.
const parkedListed = 16

// FormatParked renders a listing, one goroutine per entry, capped at
// parkedListed with a "+K more" line.
func FormatParked(ps []Parked) string {
	var b strings.Builder
	for i, p := range ps {
		if i == parkedListed {
			fmt.Fprintf(&b, "  +%d more\n", len(ps)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", p)
	}
	return b.String()
}
