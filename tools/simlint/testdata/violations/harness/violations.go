// Package harness carries exactly one seeded violation of each simlint
// class; the integration test proves the vettool catches every one of
// them and exits nonzero. The "harness" segment makes this both a
// simulation package (rawgo) and a render package (maprange), and puts
// it on the render path a layering row keeps fmt float verbs out of.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"scratch/netem"
)

type state struct {
	clock *netem.Clock
	mu    netem.Mutex
}

// wallclockViolation reads the wall clock.
func wallclockViolation() time.Time {
	return time.Now()
}

// seededrandViolation draws from the global source.
func seededrandViolation() int {
	return rand.Intn(10)
}

// rawgoViolation spawns an unregistered goroutine in a simulation
// package.
func rawgoViolation() {
	go func() {}()
}

// maprangeViolation iterates a map unsorted in a render package.
func maprangeViolation(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// noparkViolation arms an event callback that parks.
func noparkViolation(s *state) {
	s.clock.EventAt(0, func() {
		s.mu.Lock()
	})
}

// layeringViolation formats a float with a fmt verb on the render path.
func layeringViolation(x float64) string {
	return fmt.Sprintf("%.2f", x)
}
