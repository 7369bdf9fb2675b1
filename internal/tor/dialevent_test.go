package tor

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// formTap is a pass-through netem.Policy that records every dial, open
// and segment at its instant, with the bytes delivered and conns closed
// so far, and plays a world's drawn faults: dials to one host refused
// until an instant, and segments to another held back an hour (a black
// hole) for a window.
type formTap struct {
	net                              *netem.Network
	trace                            []byte
	refuseHost, holeHost             string
	refuseUntil, holeFrom, holeUntil time.Duration
}

func (p *formTap) note(format string, args ...any) {
	a := p.net.Acct().Snapshot()
	p.trace = fmt.Appendf(p.trace, "%d %d %d ", p.net.Now(), a.BytesDelivered, a.ConnsClosed)
	p.trace = fmt.Appendf(p.trace, format+"\n", args...)
}

func (p *formTap) FilterDial(src, dst string) error {
	refused := strings.HasPrefix(dst, p.refuseHost+":") && p.net.Now() < p.refuseUntil
	p.note("dial %s %s %v", src, dst, refused)
	if refused {
		return errors.New("refused")
	}
	return nil
}

func (p *formTap) ConnOpened(c *netem.Conn) { p.note("open %s %s", c.LocalAddr(), c.RemoteAddr()) }

func (p *formTap) FilterSegment(f netem.Flow, n int) netem.Verdict {
	p.note("segment %s %s %d", f.Src, f.Dst, n)
	if now := p.net.Now(); strings.HasPrefix(f.Dst, p.holeHost+":") && now >= p.holeFrom && now < p.holeUntil {
		return netem.Verdict{Action: netem.Impair, Extra: time.Hour}
	}
	return netem.Verdict{}
}

// hopTransport is a transport in front of each guard, as a set-1 bridge
// is: a flight each way, then the OR protocol.
var hopTransport = pt.WrapTransport{
	Name: "hop", Keyed: true,
	Client: pt.Handshake{Steps: []pt.Step{pt.Random(24), pt.Expect([]byte("ok"), errors.New("not ok"))}},
	Server: pt.Handshake{Steps: []pt.Step{{N: 24}, pt.Send([]byte("ok"))}},
}

// dialWorld runs the world seed draws: a client with a drawn build
// timeout and retry policy, drawn faults (two relays' crashes and
// restarts, refused dials, a black hole) and one to six drawn dials, a fifth of
// them to a port nothing listens on, each started at its instant on a
// goroutine with Dial, or, for event, from the run queue with DialEvent.
// With hop, the client's first hop goes through hopTransport to the
// guard's host. It returns the tapped trace, with each dial's result at
// the instant its caller learns it, and the client's recovery counters.
func dialWorld(t *testing.T, seed int64, event, hop bool) ([]byte, RecoveryStats) {
	w := buildWorld(t, 2, 2, 2)
	rng := sim.NewRand(seed)
	draw := func(d time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(d))) }
	tap := &formTap{net: w.net}
	w.net.SetPolicy(tap)
	var dialer pt.Dialer
	if hop {
		for _, r := range w.relays {
			if _, err := hopTransport.StartServer(r.Host(), 443, func(_ string, conn netem.Stream) { r.ServeConn(conn) }); err != nil {
				t.Fatal(err)
			}
		}
		var hs int64
		dialer = pt.DialerFunc(func(guard string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
			host, _, _ := strings.Cut(guard, ":")
			hs++
			return pt.DialWrapped(w.client, host+":443", hopTransport.Client, hs, guard, "hop", done)
		})
	}
	c := newTestClient(t, w, func(cfg *ClientConfig) {
		cfg.DialFirstHop = dialer
		cfg.Seed = seed
		cfg.BuildTimeout = []time.Duration{2 * time.Second, 10 * time.Second}[rng.Intn(2)]
		cfg.Retry = RetryPolicy{
			MaxStreamRetries: rng.Intn(4) - 1,
			MaxBuildRetries:  rng.Intn(4) - 1,
			BackoffBase:      time.Duration(rng.Intn(2)) * 500 * time.Millisecond,
		}
	})
	relay := func() *Relay { return w.relays[rng.Intn(len(w.relays))] }
	tap.refuseHost, tap.refuseUntil = relay().Host().Name(), draw(5*time.Second)
	tap.holeHost, tap.holeFrom = relay().Host().Name(), draw(5*time.Second)
	tap.holeUntil = tap.holeFrom + draw(5*time.Second)
	clock := w.net.Clock()
	for range 2 {
		crashed, down := relay(), draw(4*time.Second)
		clock.EventAt(down, func() { crashed.Crash() })
		clock.EventAt(down+draw(5*time.Second), func() { crashed.Restart() })
	}
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		target := w.target
		if rng.Intn(5) == 0 {
			target = "web:81"
		}
		done := func(s netem.Stream, err error) { tap.note("dial %d %s: %v %v", i, target, s != nil, err) }
		start := func() { clock.Go(func() { done(c.Dial(target)) }) }
		if event {
			start = func() {
				clock.ReadyEvent(func() {
					if s, err, ok := c.DialEvent(target, done); ok {
						done(s, err)
					}
				})
			}
		}
		clock.EventAt(draw(4*time.Second), start)
	}
	clock.Sleep(10 * time.Minute)
	tap.note("end %+v", c.Recovery())
	return tap.trace, c.Recovery()
}

// TestDialEventMatchesDial runs each drawn world twice, its dials once
// with the parking Dial on goroutines and once with DialEvent from the
// run queue, and requires the same trace, every dial, segment, close and
// result at the same instant, and the same recovery counters. From seed
// 61 on, the first hop goes through a transport. The draws must reach
// every recovery path between them.
func TestDialEventMatchesDial(t *testing.T) {
	var sum RecoveryStats
	for seed := int64(1); seed <= 90; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			parked, want := dialWorld(t, seed, false, seed > 60)
			evented, got := dialWorld(t, seed, true, seed > 60)
			if got != want {
				t.Errorf("recovery %+v with DialEvent, %+v with Dial", got, want)
			}
			if !bytes.Equal(parked, evented) {
				pl, el := bytes.Split(parked, []byte("\n")), bytes.Split(evented, []byte("\n"))
				for i := range min(len(pl), len(el)) {
					if !bytes.Equal(pl[i], el[i]) {
						t.Fatalf("trace line %d: %q with DialEvent, %q with Dial", i, el[i], pl[i])
					}
				}
				t.Fatalf("traces of %d and %d lines", len(el), len(pl))
			}
			sum.Rebuilds += got.Rebuilds
			sum.BuildTimeouts += got.BuildTimeouts
			sum.StreamFailures += got.StreamFailures
			sum.ReAttaches += got.ReAttaches
			sum.Abandoned += got.Abandoned
			sum.GuardProbations += got.GuardProbations
		})
	}
	t.Logf("the draws reached %+v", sum)
	if sum.Rebuilds == 0 || sum.BuildTimeouts == 0 || sum.StreamFailures == 0 || sum.ReAttaches == 0 || sum.Abandoned == 0 || sum.GuardProbations == 0 {
		t.Errorf("the draws reached %+v: a recovery path never ran", sum)
	}
}
