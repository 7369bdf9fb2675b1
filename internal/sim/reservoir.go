package sim

import "sync"

// A Reservoir is a process-wide stack of spare values that worlds share
// without sharing a run token: a world that closes hands a value over
// (Give), and a world that runs out takes one back (Take). It is
// guarded, and it is touched only on those two paths, never per use, so
// the worlds of a -jobs N campaign meet here only at a miss or a close.
// Unlike a sync.Pool it survives a collection: what a closed world
// leaves is there for the next one.
type Reservoir[T any] struct {
	mu    sync.Mutex
	spare []T
}

// Take pops the value given last, ok false when there is none.
func (r *Reservoir[T]) Take() (v T, ok bool) {
	r.mu.Lock()
	if n := len(r.spare) - 1; n >= 0 {
		var zero T
		v, ok, r.spare[n] = r.spare[n], true, zero
		r.spare = r.spare[:n]
	}
	r.mu.Unlock()
	return v, ok
}

// Give pushes v.
func (r *Reservoir[T]) Give(v T) {
	r.mu.Lock()
	r.spare = append(r.spare, v)
	r.mu.Unlock()
}
