package sim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitReturnsResults(t *testing.T) {
	e := NewExecutor(4)
	var fs []*Future[int]
	for i := 0; i < 32; i++ {
		i := i
		fs = append(fs, Submit(e, func() (int, error) { return i * i, nil }))
	}
	for i, f := range fs {
		v, err := f.Wait()
		if err != nil || v != i*i {
			t.Fatalf("task %d: got (%d, %v), want (%d, nil)", i, v, err, i*i)
		}
	}
}

func TestJobsBoundIsRespected(t *testing.T) {
	const jobs = 3
	e := NewExecutor(jobs)
	if cap(e.sem) != jobs {
		t.Fatalf("bound = %d, want %d", cap(e.sem), jobs)
	}
	var running, peak atomic.Int32
	var fs []*Future[struct{}]
	for i := 0; i < 24; i++ {
		fs = append(fs, Submit(e, func() (struct{}, error) {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			//simlint:allow wallclock -- the sim executor runs on the wall clock by design; this sleep widens the concurrency-peak measurement window.
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return struct{}{}, nil
		}))
	}
	for _, f := range fs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > jobs {
		t.Fatalf("observed %d concurrent tasks, bound is %d", p, jobs)
	}
}

func TestDefaultJobsIsPositive(t *testing.T) {
	if e := NewExecutor(0); cap(e.sem) < 1 {
		t.Fatalf("default executor has %d jobs", cap(e.sem))
	}
}

func TestErrorsPropagate(t *testing.T) {
	e := NewExecutor(1)
	boom := errors.New("boom")
	f := Submit(e, func() (int, error) { return 0, boom })
	if _, err := f.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() error = %v, want %v", err, boom)
	}
}

func TestPanicBecomesError(t *testing.T) {
	e := NewExecutor(1)
	f := Submit(e, func() (int, error) { panic("kaput") })
	if _, err := f.Wait(); err == nil {
		t.Fatal("panicking task returned nil error")
	}
	// The executor slot must have been released.
	if v, err := Submit(e, func() (int, error) { return 7, nil }).Wait(); err != nil || v != 7 {
		t.Fatalf("executor dead after panic: (%d, %v)", v, err)
	}
}

func TestWaitIsRepeatable(t *testing.T) {
	e := NewExecutor(2)
	f := Submit(e, func() (string, error) { return "x", nil })
	for i := 0; i < 3; i++ {
		if v, err := f.Wait(); v != "x" || err != nil {
			t.Fatalf("Wait #%d: (%q, %v)", i, v, err)
		}
	}
}

// TestDeriveSeedStreams pins the properties worldOptions relies on:
// stability, sensitivity to root and path, and — unlike the retired
// additive derivation — no collisions between neighbouring campaign
// seeds and experiment streams.
func TestDeriveSeedStreams(t *testing.T) {
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed is not stable")
	}
	seen := map[int64][2]int64{}
	for root := int64(1); root <= 64; root++ {
		for stream := int64(0); stream <= 64; stream++ {
			s := DeriveSeed(root, stream)
			if s == 0 {
				t.Fatalf("DeriveSeed(%d, %d) = 0", root, stream)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("collision: (%d,%d) and (%d,%d) both derive %d",
					prev[0], prev[1], root, stream, s)
			}
			seen[s] = [2]int64{root, stream}
		}
	}
	// The additive scheme this replaces collided exactly here:
	// 1+1000 == 1001+0.
	if DeriveSeed(1, 1000) == DeriveSeed(1001, 0) {
		t.Fatal("additive-style collision survived the rework")
	}
	if DeriveSeed(3) == DeriveSeed(3, 0) {
		t.Fatal("empty path must differ from path {0}")
	}
}
