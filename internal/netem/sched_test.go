package netem

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExecutionOrderPinned interleaves every way the scheduler can pick
// what runs next — goroutines queued by Go, Sleeps due at one instant,
// EventAt callbacks (one arming a further event and spawning), a Cond
// broadcast, a timed Cond wait that times out, a WakeAt, a Chan whose sender
// parks on the full queue and two WaitGroups — and pins the order in
// which they ran. The expected sequence was recorded from the
// lock-and-atomics scheduler this one replaced (and the first half of it
// from the channel hand-over one before that): ready-queue FIFO,
// (at, seq) timer order and the in-place clock advance may not move.
func TestExecutionOrderPinned(t *testing.T) {
	const ms = time.Millisecond
	c := NewClock()
	defer c.Shutdown()
	var got []string
	tag := func(s string) { got = append(got, fmt.Sprintf("%s@%v", s, c.Now())) }

	flag := false
	cond := NewCond(c)
	never := NewCond(c)
	nudge := NewCond(c)
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
		for !flag {
			tag("w-wait")
			cond.Wait()
		}
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
		flag = true
		cond.Broadcast()
		tag("b2")
		c.Sleep(ms)
		tag("b3")
	})
	spawn(func() {
		timedOut, _ := never.wait(3*ms/2, nil)
		tag(fmt.Sprintf("t-timeout=%v", timedOut))
		c.Sleep(10 * ms) // alone by now: advances in place
		tag("t-late")
	})
	c.EventAt(2*ms, func() { tag("e2") })

	// A capacity-1 Chan between a sender that parks on the full queue
	// and a slower receiver, and a second WaitGroup joining the two.
	ch := NewChan[int](c, 1)
	pair := NewWaitGroup(c)
	pair.Add(2)
	spawn(func() {
		defer pair.Done()
		for i := 0; i < 3; i++ {
			ch.Send(i)
			tag(fmt.Sprintf("tx%d", i))
		}
		ch.Close()
	})
	spawn(func() {
		defer pair.Done()
		for {
			c.Sleep(ms / 4)
			v, ok := ch.Recv()
			if !ok {
				break
			}
			tag(fmt.Sprintf("rx%d", v))
		}
		tag("rx-eof")
	})
	spawn(func() {
		pair.Wait()
		tag("pair-done")
	})
	// WakeAt turns an untimed wait into a timer at the given instant.
	spawn(func() {
		timedOut, _ := nudge.wait(noDeadline, nil)
		tag(fmt.Sprintf("n-timeout=%v", timedOut))
	})
	spawn(func() {
		c.Sleep(ms / 2)
		nudge.WakeAt(c.Now() + ms/4)
		tag("n-armed")
	})

	tag("d0")
	c.Sleep(ms)
	tag("d1")
	wg.Wait()
	tag("d-done")

	want := "d0@0s a0@0s w-wait@0s b0@0s tx0@0s rx0@250µs tx1@250µs n-armed@500µs rx1@500µs " +
		"tx2@500µs n-timeout=true@750µs rx2@750µs e1@1ms s0@1ms d1@1ms a1@1ms b1@1ms b2@1ms " +
		"w-woke@1ms rx-eof@1ms pair-done@1ms e1-again@1ms t-timeout=true@1.5ms s1@1.5ms " +
		"e2@2ms a2@2ms b3@2ms t-late@11.5ms d-done@11.5ms"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("execution order moved:\n got %s\nwant %s", s, want)
	}
}

// TestMutexAcquisitionOrderPinned pins who gets a contended Mutex and
// when: Unlock readies every waiter in wait order, the first to run
// takes the lock, and a goroutine that is still running may barge in
// before any of them. A direct hand-off to the first waiter would be a
// different schedule (a@1ms). The expected sequence was recorded from
// the sync.Mutex-and-Cond implementation this one replaced.
func TestMutexAcquisitionOrderPinned(t *testing.T) {
	const ms = time.Millisecond
	c := NewClock()
	defer c.Shutdown()
	m := NewMutex(c)
	never := NewCond(c)
	wg := NewWaitGroup(c)
	var got []string
	take := func(who string) { got = append(got, fmt.Sprintf("%s@%v", who, c.Now())) }
	spawn := func(fn func()) {
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			fn()
		})
	}

	m.LockEvent(nil)
	take("h")
	for _, who := range []string{"a", "b", "c"} {
		spawn(func() {
			m.LockEvent(nil)
			take(who)
			c.Sleep(ms)
			m.Unlock()
		})
	}
	// d joins the queue late, from a wait that times out while a holds
	// the lock.
	spawn(func() {
		timedOut, _ := never.wait(5*ms/2, nil)
		take(fmt.Sprintf("d-timeout=%v", timedOut))
		m.LockEvent(nil)
		take("d")
		m.Unlock()
	})
	c.Sleep(ms) // a, b, c queue up in this order
	// The holder barges: every waiter is readied, finds the lock taken
	// again when it runs, and queues again in the same order.
	m.Unlock()
	m.LockEvent(nil)
	take("h-again")
	c.Sleep(ms)
	m.Unlock()
	wg.Wait()

	want := "h@0s h-again@1ms a@2ms d-timeout=true@2.5ms b@3ms c@4ms d@5ms"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("acquisition order moved:\n got %s\nwant %s", s, want)
	}
}

// TestFinishedGoroutinesAreNotKept: a finished simulation goroutine's
// coroutine is reused by the next Go; however many idle on the free list
// while the clock lives, Shutdown gives every one of them back.
func TestFinishedGoroutinesAreNotKept(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
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
	if idle := runtime.NumGoroutine() - before; idle > len(c.free) || len(c.free) > 3 {
		t.Fatalf("%d OS goroutines for a free list of %d, want one each and no more than the 3 that were ever live at once", idle, len(c.free))
	}
	c.Shutdown()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d OS goroutines after Shutdown, %d before the clock", after, before)
	}
}

// TestChanBackingArrayBounded: 10 000 values through a capacity-4 Chan
// reuse one backing array of a few slots — no reallocation per refill,
// which is what re-slicing the head away cost — both when the receiver
// drains the queue every time and when a slower receiver never finds it
// empty (the dead prefix is compacted away, not grown past).
func TestChanBackingArrayBounded(t *testing.T) {
	for _, recvGap := range []time.Duration{0, 2 * time.Microsecond} {
		c := NewClock()
		defer c.Shutdown()
		ch := NewChan[int](c, 4)
		c.Go(func() {
			for i := 0; i < 10000; i++ {
				ch.Send(i)
				c.Sleep(time.Microsecond)
			}
			ch.Close()
		})
		// The address of a backing array's last slot survives any
		// re-slicing of its head and changes with every reallocation.
		var last *int
		maxCap, arrays := 0, 0
		for want := 0; ; want++ {
			v, ok := ch.Recv()
			if !ok && want == 10000 {
				break
			}
			if !ok || v != want {
				t.Fatalf("gap %v: received %d, %v as value %d of 10000", recvGap, v, ok, want)
			}
			if n := cap(ch.buf); n > 0 {
				maxCap = max(maxCap, n)
				if end := &ch.buf[:n][n-1]; end != last {
					last = end
					arrays++
				}
			}
			c.Sleep(recvGap)
		}
		if maxCap > 16 || arrays > 8 {
			t.Errorf("gap %v: %d backing arrays of up to %d slots for a capacity-4 queue, want one small array reused",
				recvGap, arrays, maxCap)
		}
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

// TestDeadlockPanicLeavesClockUsable: the deadlock panic reaches the
// driver, which may recover it (sim.Submit does). Listing who was parked
// has shut the world down, so the clock answers Registered with the
// driver alone and keeps no goroutine.
func TestDeadlockPanicLeavesClockUsable(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	cond := NewCond(c)
	c.Go(cond.Wait)
	p := wantPanic(t, cond.Wait)
	if !strings.Contains(fmt.Sprint(p), "deadlock") {
		t.Fatalf("panic %q is not the deadlock report", p)
	}
	if r := c.Registered(); r != 1 {
		t.Fatalf("Registered() = %d, want 1", r)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d OS goroutines after the deadlock report, %d before the clock", after, before)
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
			defer c.Shutdown()
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

// refTimer and refHeap are container/heap over the same (at, seq) order:
// the reference timerHeap's hand-written sifts are checked against.
type refTimer struct {
	at    time.Duration
	seq   uint64
	index int
}

type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	r := x.(*refTimer)
	r.index = len(*h)
	*h = append(*h, r)
}
func (h *refHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

// TestTimerHeapMatchesContainerHeap drives timerHeap and container/heap
// through the same 10 K random pushes, pops, removals at an index and
// WakeAt-style fixes (an entry's instant moves): every pop must
// agree, and every waiter must know its index throughout.
func TestTimerHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h timerHeap
	var ref refHeap
	type pair struct {
		w *waiter
		r *refTimer
	}
	var live []pair
	drop := func(i int) pair {
		p := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return p
	}
	find := func(w *waiter) int {
		for i, p := range live {
			if p.w == w {
				return i
			}
		}
		t.Fatalf("popped a waiter that is not live: %+v", w)
		return -1
	}
	var seq uint64
	for op := 0; op < 10_000; op++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(live) == 0: // push; few distinct instants, so seq breaks ties
			seq++
			at := time.Duration(rng.Intn(50))
			w := &waiter{at: at, seq: seq, heapIndex: -1}
			r := &refTimer{at: at, seq: seq}
			h.push(w)
			heap.Push(&ref, r)
			live = append(live, pair{w, r})
		case k < 7: // pop
			w := h.pop()
			r := heap.Pop(&ref).(*refTimer)
			if w.at != r.at || w.seq != r.seq {
				t.Fatalf("op %d: popped (%v, %d), container/heap popped (%v, %d)", op, w.at, w.seq, r.at, r.seq)
			}
			if w.heapIndex != -1 {
				t.Fatalf("op %d: popped waiter keeps heapIndex %d", op, w.heapIndex)
			}
			drop(find(w))
		case k < 9: // remove at an index
			p := drop(rng.Intn(len(live)))
			if got := h.remove(p.w.heapIndex); got != p.w {
				t.Fatalf("op %d: remove returned another waiter", op)
			}
			heap.Remove(&ref, p.r.index)
		default: // fix: the instant moves (WakeAt only moves it earlier)
			p := live[rng.Intn(len(live))]
			at := time.Duration(rng.Intn(50))
			p.w.at, p.r.at = at, at
			h.fix(p.w.heapIndex, p.w)
			heap.Fix(&ref, p.r.index)
		}
		if len(h) != len(ref) {
			t.Fatalf("op %d: %d timers, container/heap holds %d", op, len(h), len(ref))
		}
		for i, w := range h {
			if w.heapIndex != i {
				t.Fatalf("op %d: waiter at %d believes it is at %d", op, i, w.heapIndex)
			}
		}
	}
	for len(ref) > 0 {
		w, r := h.pop(), heap.Pop(&ref).(*refTimer)
		if w.at != r.at || w.seq != r.seq {
			t.Fatalf("drain: popped (%v, %d), container/heap popped (%v, %d)", w.at, w.seq, r.at, r.seq)
		}
	}
}

// TestWaitEventRunsWhereTheParkedGoroutineWould runs one waiter twice,
// as a goroutine parked in Cond waits and as a callback chained through
// Cond.WaitEvent and, for the timed wait, Cond.wait, among the same
// goroutine and events: a Broadcast ends
// its first wait, ahead of a callback queued after it, its deadline the
// second, between an event armed before the wait and one armed after,
// and every step of either form happens at the same instant and in the
// same order. Only the goroutine parks.
func TestWaitEventRunsWhereTheParkedGoroutineWould(t *testing.T) {
	run := func(event bool) ([]string, Stats) {
		clock := NewClock()
		defer clock.Shutdown()
		cd := NewCond(clock)
		var log []string
		note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, clock.Now())) }
		clock.EventAt(30*time.Millisecond, func() { note("early-arm") })
		if event {
			step := 0
			var fn func()
			fn = func() {
				switch step {
				case 0:
					step = 1
					if cd.WaitEvent(fn) {
						return
					}
					fallthrough
				case 1:
					note("woken")
					step = 2
					if _, queued := cd.wait(30*time.Millisecond, fn); queued {
						return
					}
					fallthrough
				case 2:
					note("timed out")
				}
			}
			clock.ReadyEvent(fn)
		} else {
			clock.Go(func() {
				cd.Wait()
				note("woken")
				cd.wait(30*time.Millisecond, nil)
				note("timed out")
			})
		}
		clock.Go(func() {
			clock.Sleep(10 * time.Millisecond)
			note("broadcast")
			cd.Broadcast()
			note("after broadcast")
			clock.ReadyEvent(func() { note("queued after broadcast") })
			clock.Sleep(10 * time.Millisecond)
			clock.EventAt(30*time.Millisecond, func() { note("late-arm") })
		})
		clock.Sleep(time.Second)
		return log, clock.Stats()
	}
	parked, ps := run(false)
	evented, es := run(true)
	if fmt.Sprint(parked) != fmt.Sprint(evented) {
		t.Fatalf("parked waiter:\n%v\nevent waiter:\n%v", parked, evented)
	}
	if want := "[broadcast@10ms after broadcast@10ms woken@10ms queued after broadcast@10ms early-arm@30ms timed out@30ms late-arm@30ms]"; fmt.Sprint(parked) != want {
		t.Fatalf("order %v, want %s", parked, want)
	}
	if es.Parks >= ps.Parks || es.Events+es.ReadyEvents <= ps.Events+ps.ReadyEvents {
		t.Fatalf("stats: parked %+v, event %+v; the event form should trade parks for events", ps, es)
	}
	if ps.Spawns != 2 || es.Spawns != 1 {
		t.Fatalf("spawns: parked %d, event %d; want 2 and 1, one per Go", ps.Spawns, es.Spawns)
	}
}

// TestAwaitResumesInPlace runs two waits, a sleep and a Cond wait,
// twice on a goroutine: parked in each, and awaiting an event form of
// both at once (Await). The Broadcast that ends the second wait queues a
// callback after it, so a goroutine the continuation readied anywhere
// but at the head of the run queue would resume after that callback,
// not where the parked one did. Both runs make every step at the same
// instant and in the same order, the awaiting goroutine parks once, and
// an event form done at once parks nothing.
func TestAwaitResumesInPlace(t *testing.T) {
	run := func(await bool) ([]string, Stats) {
		clock := NewClock()
		defer clock.Shutdown()
		cd := NewCond(clock)
		var log []string
		note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, clock.Now())) }
		twoWaits := func(done func(int, error)) (int, error, bool) {
			step := 0
			var fn func()
			fn = func() {
				if step++; step == 1 {
					note("slept")
					if cd.WaitEvent(fn) {
						return
					}
				}
				note("woken")
				done(7, nil)
			}
			if !clock.SleepEvent(10*time.Millisecond, fn) {
				return 0, nil, false
			}
			panic("the sleep passed in place")
		}
		clock.Go(func() {
			v := 7
			if await {
				v, _ = Await(clock, twoWaits)
			} else {
				clock.Sleep(10 * time.Millisecond)
				note("slept")
				cd.Wait()
				note("woken")
			}
			note(fmt.Sprintf("resumed with %d", v))
		})
		clock.Go(func() {
			clock.Sleep(20 * time.Millisecond)
			cd.Broadcast()
			clock.ReadyEvent(func() { note("queued after broadcast") })
		})
		clock.EventAt(5*time.Millisecond, func() { note("early event") })
		clock.Sleep(time.Second)
		parks := clock.Stats().Parks
		if v, _ := Await(clock, func(func(int, error)) (int, error, bool) { return 3, nil, true }); v != 3 || clock.Stats().Parks != parks {
			t.Errorf("an event form done at once handed over %d and parked %d times, want 3 and none", v, clock.Stats().Parks-parks)
		}
		return log, clock.Stats()
	}
	parked, ps := run(false)
	awaited, as := run(true)
	if fmt.Sprint(parked) != fmt.Sprint(awaited) {
		t.Fatalf("parked goroutine:\n%v\nawaiting goroutine:\n%v", parked, awaited)
	}
	if want := "[early event@5ms slept@10ms woken@20ms resumed with 7@20ms queued after broadcast@20ms]"; fmt.Sprint(parked) != want {
		t.Fatalf("order %v, want %s", parked, want)
	}
	if ps.Parks-as.Parks != 1 {
		t.Fatalf("parks: %d parked, %d awaiting; the awaiting goroutine should park once in place of twice", ps.Parks, as.Parks)
	}
}

// TestRecvEventRunsWhereTheParkedReceiverWould drains a queue twice,
// with a goroutine looping on Recv and with a callback chained through
// Chan.RecvEvent, against the same sender: a value sent to an idle
// receiver, two sent back to back, and values left queued at Close,
// which still drain before the receiver learns of the close. Every
// receive of either form happens at the same instant and in the same
// order, ahead of a callback queued after the send that woke it.
func TestRecvEventRunsWhereTheParkedReceiverWould(t *testing.T) {
	run := func(event bool) []string {
		clock := NewClock()
		defer clock.Shutdown()
		ch := NewChan[int](clock, 0)
		var log []string
		note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, clock.Now())) }
		got := func(v int, ok bool) { note(fmt.Sprintf("recv %d %v", v, ok)) }
		if event {
			var fn func()
			fn = func() {
				for {
					v, ok, done := ch.RecvEvent(fn)
					if !done {
						return
					}
					got(v, ok)
					if !ok {
						return
					}
				}
			}
			clock.ReadyEvent(fn)
		} else {
			clock.Go(func() {
				for {
					v, ok := ch.Recv()
					got(v, ok)
					if !ok {
						return
					}
				}
			})
		}
		clock.Go(func() {
			clock.Sleep(10 * time.Millisecond)
			ch.TrySend(1)
			clock.ReadyEvent(func() { note("queued after send") })
			clock.Sleep(10 * time.Millisecond)
			ch.TrySend(2)
			ch.TrySend(3)
			clock.Sleep(10 * time.Millisecond)
			ch.TrySend(4)
			ch.TrySend(5)
			ch.Close()
			note("closed")
		})
		clock.Sleep(time.Second)
		return log
	}
	parked, evented := run(false), run(true)
	if fmt.Sprint(parked) != fmt.Sprint(evented) {
		t.Fatalf("parked receiver:\n%v\nevent receiver:\n%v", parked, evented)
	}
	if want := "[recv 1 true@10ms queued after send@10ms recv 2 true@20ms recv 3 true@20ms closed@30ms recv 4 true@30ms recv 5 true@30ms recv 0 false@30ms]"; fmt.Sprint(parked) != want {
		t.Fatalf("order %v, want %s", parked, want)
	}
}

// TestEventWaitLeftAtShutdownIsDropped ends a world with an event wait
// on a wait list, untimed and timed, as a pump idles on its source:
// a Broadcast and a WakeAt after Shutdown, which World.Close's aborts
// make, must queue no continuation and arm no timer, and a wait begun on
// the closed clock is dropped too.
func TestEventWaitLeftAtShutdownIsDropped(t *testing.T) {
	clock := NewClock()
	untimed, timed := NewCond(clock), NewCond(clock)
	ran := 0
	fn := func() { ran++ }
	clock.ReadyEvent(func() {
		untimedOut, _ := untimed.wait(noDeadline, fn)
		timedOut, _ := timed.wait(time.Second, fn)
		if untimedOut || timedOut {
			t.Error("a wait with nothing to end it returned at once")
		}
	})
	clock.Sleep(time.Millisecond)
	clock.Shutdown()
	for _, cd := range []*Cond{untimed, timed} {
		cd.WakeAt(clock.Now())
		if len(clock.timers) != 0 {
			t.Fatalf("WakeAt after Shutdown armed %d timers", len(clock.timers))
		}
		cd.Broadcast()
		if timedOut, _ := cd.wait(2*time.Second, fn); timedOut {
			t.Error("a wait on a closed clock timed out")
		}
		cd.Broadcast()
	}
	if n := clock.readyLen(); n != 0 || len(clock.timers) != 0 || ran != 0 {
		t.Fatalf("after Shutdown: %d ready, %d timers, %d continuations run; want none", n, len(clock.timers), ran)
	}
}

// TestTimersHighIsTheDeepestHeap: TimersHigh counts every way into the
// timer heap (EventAt, a timed wait, a WakeAt) and keeps the deepest the
// heap went after the heap has drained.
func TestTimersHighIsTheDeepestHeap(t *testing.T) {
	clock := NewClock()
	t.Cleanup(clock.Shutdown)
	cd := NewCond(clock)
	for i := 1; i <= 3; i++ {
		clock.EventAt(time.Duration(i)*time.Second, func() {})
	}
	clock.Go(func() { cd.wait(10*time.Second, nil) }) // a timed wait
	clock.Go(func() { cd.Wait() })                    // woken by WakeAt
	clock.Go(func() {
		clock.Sleep(time.Millisecond)
		cd.WakeAt(5 * time.Second)
	})
	clock.Sleep(20 * time.Second)
	if got := clock.Stats().TimersHigh; got != 6 {
		t.Fatalf("TimersHigh = %d, want 6: three events, a timed wait, a WakeAt and the driver's sleep", got)
	}
}
