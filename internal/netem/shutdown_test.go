package netem

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// endsClean fails the test unless Shutdown has left the clock empty and
// the process with the goroutines it had before the clock was made. (A
// count below that is the previous test's own goroutine, which the
// testing package lets exit in its own time.)
func endsClean(t *testing.T, c *Clock, before int) {
	t.Helper()
	if r := c.Registered(); r != 1 {
		t.Errorf("Registered() = %d after Shutdown, want 1", r)
	}
	if len(c.coros)+len(c.free)+len(c.ready)+len(c.timers) != 0 {
		t.Errorf("a closed clock still holds coros=%d free=%d ready=%d timers=%d",
			len(c.coros), len(c.free), len(c.ready), len(c.timers))
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d OS goroutines after Shutdown, %d before the clock", after, before)
	}
}

// TestShutdownUnwindsNestedUnlocks: a goroutine parked while it holds
// three mutexes by deferred Unlock comes out through all three, innermost
// first, and a second goroutine queued on the outermost one never gets
// it: its own park unwinds instead.
func TestShutdownUnwindsNestedUnlocks(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	var got []string
	mus := []*Mutex{NewMutex(c), NewMutex(c), NewMutex(c)}
	hold := func(i int) func() {
		mus[i].LockEvent(nil)
		return func() {
			mus[i].Unlock()
			got = append(got, fmt.Sprintf("unlock%d", i))
		}
	}
	c.Go(func() {
		defer hold(0)()
		defer hold(1)()
		defer hold(2)()
		NewCond(c).Wait()
		got = append(got, "returned into a dead world")
	})
	c.Go(func() {
		mus[0].LockEvent(nil)
		got = append(got, "took the lock of a dead world")
	})
	c.Sleep(time.Millisecond)
	c.Shutdown()
	if s := strings.Join(got, " "); s != "unlock2 unlock1 unlock0" {
		t.Errorf("unwinding ran %q, want the three unlocks innermost first and nothing else", s)
	}
	for i, m := range mus {
		if m.locked {
			t.Errorf("mutex %d still held", i)
		}
	}
	endsClean(t, c, before)
}

// TestShutdownCutsDeferredCallsShort: a deferred call that parks, spawns
// and arms an event while its frame is being unwound does none of the
// three, and the deferred calls under it still run.
func TestShutdownCutsDeferredCallsShort(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	var got []string
	c.Go(func() {
		defer func() { got = append(got, "outer defer") }()
		defer func() {
			c.Go(func() { got = append(got, "spawned") })
			c.EventAt(c.Now(), func() { got = append(got, "event") })
			got = append(got, "parking")
			c.Sleep(time.Second)
			got = append(got, "slept in a dead world")
		}()
		c.Sleep(time.Hour)
	})
	c.Sleep(time.Millisecond)
	c.Shutdown()
	if s := strings.Join(got, ", "); s != "parking, outer defer" {
		t.Errorf("unwinding ran %q", s)
	}
	endsClean(t, c, before)
}

// TestShutdownDropsWhatNeverRan: a Go that was never scheduled does not
// run, on a fresh coroutine or on a reused one, and neither does a
// pending event.
func TestShutdownDropsWhatNeverRan(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	c.Go(func() {})
	c.Sleep(time.Millisecond) // one idle coroutine on the free list
	ran := false
	c.Go(func() { ran = true }) // reuses it
	c.Go(func() { ran = true }) // mints one
	c.EventAt(time.Second, func() { ran = true })
	if r := c.Registered(); r != 3 {
		t.Fatalf("Registered() = %d with two goroutines queued, want 3", r)
	}
	c.Shutdown()
	if ran {
		t.Error("Shutdown ran what was only queued")
	}
	endsClean(t, c, before)
}

// TestShutdownSurfacesOtherPanics: a deferred call that panics while its
// frame unwinds is a bug in that call, and the driver hears of it, after
// every other goroutine has been stopped all the same.
func TestShutdownSurfacesOtherPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	unwound := 0
	for i := 0; i < 5; i++ {
		c.Go(func() {
			defer func() {
				unwound++
				if i == 3 {
					panic("boom in a defer")
				}
			}()
			NewCond(c).Wait()
		})
	}
	c.Sleep(time.Millisecond)
	if p := wantPanic(t, c.Shutdown); p != "boom in a defer" {
		t.Fatalf("Shutdown panicked with %v, want the deferred call's panic", p)
	}
	if unwound != 5 {
		t.Errorf("%d of 5 goroutines unwound", unwound)
	}
	endsClean(t, c, before)
}

// TestClosedClock: Shutdown twice is a no-op, Now and Registered still
// answer, Go and EventAt are dropped, a wait that would park says the
// world is closed, and that panic is a plain one, not the sentinel.
func TestClosedClock(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	c.Go(func() { c.Sleep(time.Hour) })
	c.Sleep(time.Second)
	c.Shutdown()
	c.Shutdown()
	if now := c.Now(); now != time.Second {
		t.Errorf("Now() = %v on a closed clock, want 1s", now)
	}
	c.Go(func() { t.Error("a Go on a closed clock ran") })
	c.EventAt(0, func() { t.Error("an event on a closed clock ran") })
	for name, wait := range map[string]func(){
		"Sleep":           func() { c.Sleep(time.Second) },
		"Cond.Wait":       NewCond(c).Wait,
		"Mutex.LockEvent": func() { m := NewMutex(c); m.LockEvent(nil); m.LockEvent(nil) },
	} {
		p := wantPanic(t, wait)
		if s, ok := p.(string); !ok || !strings.Contains(s, "closed") {
			t.Errorf("%s on a closed clock panicked with %#v, want the \"closed\" text", name, p)
		}
	}
	endsClean(t, c, before)
}

// TestShutdownAfterGoroutinePanic: a simulation goroutine's panic comes
// out of the driver's wait; the deferred Shutdown a driver runs on its
// way out must find the clock consistent and stop the rest.
func TestShutdownAfterGoroutinePanic(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	c.Go(func() { NewCond(c).Wait() })
	c.Go(func() {
		c.Sleep(time.Millisecond)
		panic("boom")
	})
	p := wantPanic(t, func() {
		defer c.Shutdown()
		c.Sleep(time.Second)
	})
	if p != "boom" {
		t.Fatalf("driver saw panic %v, want boom", p)
	}
	endsClean(t, c, before)
}

// TestShutdownFromGoroutinePanics: only the driver ends a world.
func TestShutdownFromGoroutinePanics(t *testing.T) {
	c := NewClock()
	defer c.Shutdown()
	c.Go(c.Shutdown)
	p := wantPanic(t, func() { c.Sleep(time.Second) })
	if !strings.Contains(fmt.Sprint(p), "only the driver") {
		t.Fatalf("panic %q does not say who may shut down", p)
	}
}

// waitsOnItsCond and sleepsUnderLock are the two parties of
// TestDeadlockNamesTheParked; the report must name both.
func waitsOnItsCond(cd *Cond) { cd.Wait() }

func holdsAndWaits(m *Mutex, cd *Cond) {
	m.LockEvent(nil)
	defer m.Unlock()
	cd.wait(noDeadline, nil)
}

// TestDeadlockNamesTheParked: the deadlock panic lists every parked
// goroutine with what it waits on and the code that waits, and caps the
// list.
func TestDeadlockNamesTheParked(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	m, cd := NewMutex(c), NewCond(c)
	c.Go(func() { waitsOnItsCond(cd) })
	c.EventAt(time.Millisecond, func() { c.Go(func() { holdsAndWaits(m, cd) }) })
	wg := NewWaitGroup(c)
	wg.Add(1)
	text := fmt.Sprint(wantPanic(t, wg.Wait))
	for _, want := range []string{
		"all 3 simulation goroutines are blocked",
		"netem.waitsOnItsCond", "netem.holdsAndWaits",
		"spawned at t=0s: cond wait, no deadline",
		"spawned at t=1ms: cond wait, no deadline",
		"the driver",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("deadlock report lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "netem.(*Cond).wait") || strings.Contains(text, "newCoro") {
		t.Errorf("deadlock report shows the scheduler's own frames:\n%s", text)
	}
	if m.locked {
		t.Error("the report left a deferred Unlock unrun")
	}
	endsClean(t, c, before)

	c = NewClock()
	for i := 0; i < parkedListed+5; i++ {
		c.Go(NewCond(c).Wait)
	}
	text = fmt.Sprint(wantPanic(t, NewCond(c).Wait))
	if n := strings.Count(text, "spawned at"); n != parkedListed || !strings.Contains(text, "+5 more") {
		t.Errorf("report lists %d goroutines, want %d and a \"+5 more\":\n%s", n, parkedListed, text)
	}
	endsClean(t, c, before)
}

// TestShutdownListing: timed waits, sleeps, awaits and goroutines
// already readied describe themselves too.
func TestShutdownListing(t *testing.T) {
	c := NewClock()
	cd := NewCond(c)
	c.Go(func() { c.Sleep(time.Hour) })
	c.Go(func() { NewCond(c).wait(time.Minute, nil) })
	c.Go(cd.Wait)
	c.Go(func() { Await(c, func(func(int, error)) (int, error, bool) { return 0, nil, false }) })
	c.Sleep(time.Second)
	cd.Broadcast()
	text := FormatParked(c.ShutdownListing())
	for _, want := range []string{"sleep until t=1h0m0s", "cond wait, deadline t=1m0s", "runnable", "awaiting an event form (Await)"} {
		if !strings.Contains(text, want) {
			t.Errorf("listing lacks %q:\n%s", want, text)
		}
	}
}
