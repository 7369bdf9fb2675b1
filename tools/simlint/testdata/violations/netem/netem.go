// Package netem is the minimal scheduler stub the seeded violations
// need: the analyzers match primitives by path segment, receiver and
// method name.
package netem

import (
	"sync"
	"time"
)

// Clock carries the seeded nolocks violation: a sync lock inside a
// world package.
type Clock struct {
	mu sync.Mutex
}

func (c *Clock) EventAt(vt time.Duration, fn func()) {}

// Go carries the seeded norecover violation: a recover inside a world
// package.
func (c *Clock) Go(fn func()) {
	defer func() { _ = recover() }()
	fn()
}

type Mutex struct{}

func (m *Mutex) Lock()                    {}
func (m *Mutex) LockEvent(fn func()) bool { return true }
func (m *Mutex) Unlock()                  {}
