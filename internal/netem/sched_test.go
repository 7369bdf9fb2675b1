package netem

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExecutionOrderPinned interleaves every way the scheduler can pick
// what runs next — goroutines queued by Go, Sleeps due at one instant,
// EventAt callbacks (one arming a further event and spawning), a Cond
// broadcast and a WaitVT that times out — and pins the order in which
// they ran. The expected sequence was recorded from the channel
// hand-over scheduler this one replaced: ready-queue FIFO, (at, seq)
// timer order and the in-place clock advance may not move.
func TestExecutionOrderPinned(t *testing.T) {
	const ms = time.Millisecond
	c := NewClock()
	var got []string
	tag := func(s string) { got = append(got, fmt.Sprintf("%s@%v", s, c.Now())) }

	var mu sync.Mutex
	flag := false
	cond := NewCond(c, &mu)
	never := NewCond(c, &mu)
	wg := NewWaitGroup(c)
	spawn := func(fn func()) {
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			fn()
		})
	}

	spawn(func() {
		tag("a0")
		c.Sleep(ms)
		tag("a1")
		c.Sleep(ms)
		tag("a2")
	})
	spawn(func() {
		mu.Lock()
		for !flag {
			tag("w-wait")
			cond.Wait()
		}
		mu.Unlock()
		tag("w-woke")
	})
	c.EventAt(ms, func() {
		tag("e1")
		c.EventAt(ms, func() { tag("e1-again") })
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			tag("s0")
			c.Sleep(ms / 2)
			tag("s1")
		})
	})
	spawn(func() {
		tag("b0")
		c.Sleep(ms)
		tag("b1")
		mu.Lock()
		flag = true
		mu.Unlock()
		cond.Broadcast()
		tag("b2")
		c.Sleep(ms)
		tag("b3")
	})
	spawn(func() {
		mu.Lock()
		timedOut := never.WaitVT(3 * ms / 2)
		mu.Unlock()
		tag(fmt.Sprintf("t-timeout=%v", timedOut))
		c.Sleep(10 * ms) // alone by now: advances in place
		tag("t-late")
	})
	c.EventAt(2*ms, func() { tag("e2") })

	tag("d0")
	c.Sleep(ms)
	tag("d1")
	wg.Wait()
	tag("d-done")

	want := "d0@0s a0@0s w-wait@0s b0@0s e1@1ms s0@1ms d1@1ms a1@1ms b1@1ms b2@1ms " +
		"w-woke@1ms e1-again@1ms t-timeout=true@1.5ms s1@1.5ms " +
		"e2@2ms a2@2ms b3@2ms t-late@11.5ms d-done@11.5ms"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("execution order moved:\n got %s\nwant %s", s, want)
	}
}

// TestFinishedGoroutinesAreNotKept: a finished simulation goroutine's
// coroutine is reused by the next Go, and no more than freeCoros idle
// ones are kept per clock.
func TestFinishedGoroutinesAreNotKept(t *testing.T) {
	c := NewClock()
	before := runtime.NumGoroutine()
	ran := 0
	for i := 0; i < 10000; i++ {
		c.Go(func() {
			c.Sleep(time.Microsecond)
			ran++
		})
		if i%3 == 0 { // let one, two or three be live at once
			c.Sleep(time.Millisecond)
		}
	}
	c.Sleep(time.Millisecond)
	if ran != 10000 {
		t.Fatalf("ran %d of 10000 goroutines", ran)
	}
	if r := c.Registered(); r != 1 {
		t.Fatalf("Registered() = %d after every goroutine returned, want 1 (the driver)", r)
	}
	if grew := runtime.NumGoroutine() - before; grew > freeCoros {
		t.Fatalf("%d OS goroutines left behind, want at most the free list's %d", grew, freeCoros)
	}
}

// wantPanic runs fn and returns the value it panicked with.
func wantPanic(t *testing.T, fn func()) (p any) {
	t.Helper()
	defer func() {
		if p = recover(); p == nil {
			t.Fatal("no panic")
		}
	}()
	fn()
	return nil
}

// TestParkInEventPanics: an EventAt callback runs on the driver's stack
// while nobody holds the run token, so a park from inside it is a park
// from an unregistered goroutine. The park is reached through a
// function value: that is the call simlint's noparkinevent cannot
// follow, and the one this runtime backstop exists for.
func TestParkInEventPanics(t *testing.T) {
	c := NewClock()
	park := c.Sleep
	c.EventAt(time.Millisecond, func() { park(time.Second) })
	p := wantPanic(t, func() { c.Sleep(time.Second) })
	if !strings.Contains(fmt.Sprint(p), "unregistered goroutine") {
		t.Fatalf("panic %q does not name the unregistered goroutine", p)
	}
}

// TestDeadlockPanicReleasesLock: the deadlock panic reaches the driver,
// which may recover it (sim.Submit does); the clock must still answer
// Registered afterwards.
func TestDeadlockPanicReleasesLock(t *testing.T) {
	c := NewClock()
	var mu sync.Mutex
	cond := NewCond(c, &mu)
	c.Go(func() {
		mu.Lock()
		cond.Wait()
		mu.Unlock()
	})
	p := wantPanic(t, func() {
		mu.Lock()
		defer mu.Unlock()
		cond.Wait()
	})
	if !strings.Contains(fmt.Sprint(p), "deadlock") {
		t.Fatalf("panic %q is not the deadlock report", p)
	}
	if r := c.Registered(); r != 2 {
		t.Fatalf("Registered() = %d, want 2", r)
	}
}

// TestGoroutinePanicReachesDriver: a panic on a simulation goroutine
// comes out of the driver's park.
func TestGoroutinePanicReachesDriver(t *testing.T) {
	c := NewClock()
	c.Go(func() {
		c.Sleep(time.Millisecond)
		panic("boom")
	})
	if p := wantPanic(t, func() { c.Sleep(time.Second) }); p != "boom" {
		t.Fatalf("driver saw panic %v, want boom", p)
	}
}

// TestTwoClocksInParallel drives two clocks from two OS goroutines at
// once (the -jobs N shape): under -race this proves the coroutine
// switch shares nothing between clocks.
func TestTwoClocksInParallel(t *testing.T) {
	sums := make([]time.Duration, 2)
	var done sync.WaitGroup
	for i := range sums {
		done.Add(1)
		go func() {
			defer done.Done()
			c := NewClock()
			wg := NewWaitGroup(c)
			ch := NewChan[int](c, 1)
			wg.Add(2)
			c.Go(func() {
				defer wg.Done()
				for k := 0; k < 2000; k++ {
					c.Sleep(time.Microsecond)
					ch.Send(k)
				}
				ch.Close()
			})
			c.Go(func() {
				defer wg.Done()
				for {
					if _, ok := ch.Recv(); !ok {
						return
					}
					c.Go(func() { c.Sleep(time.Microsecond) })
				}
			})
			wg.Wait()
			sums[i] = c.Now()
		}()
	}
	done.Wait()
	if sums[0] != sums[1] || sums[0] == 0 {
		t.Fatalf("two identical worlds ended at %v and %v", sums[0], sums[1])
	}
}

// BenchmarkClockHandoff: two simulation goroutines alternating Sleep, so
// every operation is a park, a dispatch and a switch to the other one.
func BenchmarkClockHandoff(b *testing.B) {
	c := NewClock()
	wg := NewWaitGroup(c)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			for i := 0; i < b.N/2+1; i++ {
				c.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	wg.Wait()
}

// BenchmarkClockGo: spawn a simulation goroutine, run it, let it return.
func BenchmarkClockGo(b *testing.B) {
	c := NewClock()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Go(fn)
		c.Sleep(time.Microsecond)
	}
	if n != b.N {
		b.Fatalf("ran %d of %d", n, b.N)
	}
}

// BenchmarkClockEvent: a self-re-arming EventAt chain dispatched inline
// while the driver sleeps past its end.
func BenchmarkClockEvent(b *testing.B) {
	c := NewClock()
	left := b.N
	var fire func()
	fire = func() {
		if left--; left > 0 {
			c.EventAt(c.Now()+time.Microsecond, fire)
		}
	}
	b.ResetTimer()
	c.EventAt(c.Now()+time.Microsecond, fire)
	c.Sleep(time.Duration(b.N+1) * time.Microsecond)
}
