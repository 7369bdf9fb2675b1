//go:build go1.23

package netem

import "iter"

// newCoro is where the scheduler mints its own coroutines: netem is the
// one simulation package rawgo lets call iter.Pull.
func newCoro(fn func()) (resume func() (struct{}, bool)) {
	resume, _ = iter.Pull(func(yield func(struct{}) bool) { fn() })
	return resume
}
