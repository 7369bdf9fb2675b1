// Package sim is the multi-world shard executor: it runs independent
// simulated worlds — "world tasks" — on real OS parallelism while
// keeping every world deterministic.
//
// The discrete-event scheduler (internal/netem) runs exactly one
// simulation goroutine per world at a time, which is what makes a world
// a pure function of its seed. That single-token discipline is
// per-clock, not global: two worlds share no scheduler state, so a
// campaign decomposed into independent worlds — one per sweep scenario
// cell, per experiment world, per repeat — can run them all
// concurrently without loosening any intra-world ordering. The executor
// bounds how many run at once (normally runtime.GOMAXPROCS(0)) and
// hands each task's result back through a Future.
//
// The determinism contract a task must satisfy:
//
//   - it builds its own netem.Network (the task goroutine becomes that
//     world's driver) and never touches another task's world;
//   - it is a pure function of its inputs — no wall-clock reads, no
//     global mutable state, no writes to shared sinks (report writers,
//     counters) — returning a value instead of emitting output;
//   - its seed comes from DeriveSeed, so neighbouring tasks draw from
//     statistically independent streams.
//
// Under that contract, results are independent of execution order, and
// a caller that joins futures in canonical task order produces
// byte-identical reports at any parallelism. The harness's
// determinism tests (-jobs 1 vs -jobs N) enforce exactly this.
package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Executor bounds how many world tasks run concurrently. Tasks beyond
// the bound queue; each admitted task runs on its own OS goroutine,
// unregistered with any virtual clock — the world the task builds
// registers the task goroutine as its driver.
type Executor struct {
	sem chan struct{}
}

// NewExecutor returns an executor running up to jobs world tasks at
// once; jobs < 1 means runtime.GOMAXPROCS(0). jobs == 1 reproduces
// fully sequential execution (and, under the task contract, identical
// results to any other value).
func NewExecutor(jobs int) *Executor {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Executor{sem: make(chan struct{}, jobs)}
}

// Future is the join handle of one submitted world task. Wait may be
// called any number of times from any goroutine.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Wait blocks until the task finishes and returns its result. The
// caller must not hold an executor slot (i.e. must not be inside
// another task of the same executor) or a full executor deadlocks.
func (f *Future[T]) Wait() (T, error) {
	<-f.done
	return f.val, f.err
}

// Submit schedules fn as a world task and returns its future
// immediately. fn must follow the package-level task contract. A panic
// on the task goroutine is captured as the future's error, and so is a
// panic on a simulation goroutine of the task's world: those are
// coroutines of the task goroutine, and their panics come out of its
// next scheduler wait.
func Submit[T any](e *Executor, fn func() (T, error)) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		defer func() {
			if p := recover(); p != nil {
				f.err = fmt.Errorf("sim: world task panic: %v\n%s", p, debug.Stack())
			}
		}()
		f.val, f.err = fn()
	}()
	return f
}
