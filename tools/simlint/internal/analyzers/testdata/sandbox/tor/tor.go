// Package tor exercises the no-suppress policy: inside a package whose
// path has a netem or tor segment, a noparkinevent directive is itself
// an error and suppresses nothing.
package tor

import (
	"math/rand"

	"sandbox/netem"
	"sandbox/sim"
)

// Client is a Tor client: Dial and Preheat await DialEvent, Dial's
// event form, parked.
type Client struct{}

func (c *Client) Dial(target string) (netem.Stream, error) { return nil, nil }
func (c *Client) Preheat() error                           { return nil }
func (c *Client) DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	return nil, nil, true
}

type sched struct {
	clock *netem.Clock
	mu    netem.Mutex
}

func (s *sched) arm() {
	s.clock.EventAt(0, s.flush)
}

func (s *sched) flush() {
	//simlint:allow noparkinevent -- not honored here // want `noparkinevent may not be suppressed in package sandbox/tor.*\[directive\]`
	s.mu.Lock() // want `\(netem\.Mutex\)\.Lock parks while contended`
}

// streams: a simulation package draws from sim.NewRand and builds no
// source of its own.
func streams(seed int64, src rand.Source) []*rand.Rand {
	return []*rand.Rand{
		sim.NewRand(seed),
		rand.New(rand.NewSource(seed)), // want `rand\.New in simulation package sandbox/tor` `rand\.NewSource in simulation package sandbox/tor builds a second random stream type; use sim\.NewRand\(seed\).*\[seededrand\]`
		rand.New(src),                  // want `rand\.New in simulation package sandbox/tor builds a second random stream type`
		rand.New(rand.NewSource(seed)), //simlint:allow seededrand -- a spec generator whose persisted repro lines mean math/rand's draws
	}
}
