//go:build go1.23

package faults

import "iter"

func one(yield func(int) bool) { yield(1) }

// badCoro mints execution contexts the scheduler cannot see.
func badCoro() {
	next, stop := iter.Pull(one) // want `iter\.Pull coroutine in simulation package sandbox/faults.*\[rawgo\]`
	defer stop()
	next()
	next2, stop2 := iter.Pull2[int, int](func(yield func(int, int) bool) {}) // want `iter\.Pull2 coroutine in simulation package sandbox/faults.*\[rawgo\]`
	defer stop2()
	next2()
}
