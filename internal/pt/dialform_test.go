package pt_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/testkit/tracekit"
)

// refuseNth turns away the client's n-th dial (from 1), and none for n
// 0.
type refuseNth struct{ n, seen int }

func (p *refuseNth) FilterDial(src, _ string) error {
	if src != "client" {
		return nil
	}
	if p.seen++; p.seen == p.n {
		return errors.New("refused")
	}
	return nil
}

func (p *refuseNth) ConnOpened(*netem.Conn) {}

func (p *refuseNth) FilterSegment(netem.Flow, int) netem.Verdict { return netem.Verdict{} }

// dialTwice starts the tunnel's server, whose handler keeps each stream,
// and dials it twice in a row, the second dial once the first has
// ended: on a goroutine that awaits each dial (netem.Await), or, for
// event, from the run queue with DialEvent, the second from the first's
// done, where the goroutine went on. The client's refuse-th dial is turned away. It
// returns the tapped trace, each result noted at the instant its caller
// learns it, and the parks of the event run from its start.
func dialTwice(t *testing.T, start func(*world, pt.StreamHandler) (pt.Dialer, error), refuse int, event bool) ([]byte, uint64) {
	w := newWorld(t)
	tap := tracekit.New(w.net).Tap(&refuseNth{n: refuse})
	var kept []netem.Stream
	d, err := start(w, func(_ string, conn netem.Stream) { kept = append(kept, conn) })
	if err != nil {
		t.Fatal(err)
	}
	clock := w.net.Clock()
	note := func(s netem.Stream, err error) { tap.Note("dialed %v %v", s != nil, err) }
	var parks uint64
	if event {
		var dial func(i int)
		dial = func(i int) {
			done := func(s netem.Stream, err error) {
				if note(s, err); i == 0 {
					dial(1)
				}
			}
			if s, err, ok := d.DialEvent(fmt.Sprintf("guard-%d:9001", i), done); ok {
				done(s, err)
			}
		}
		clock.ReadyEvent(func() { parks = clock.Stats().Parks; dial(0) })
	} else {
		clock.Go(func() {
			for i := range 2 {
				s, err := dial(w.net, d, fmt.Sprintf("guard-%d:9001", i))
				note(s, err)
			}
		})
	}
	clock.Sleep(2 * time.Minute)
	tap.Note("end %d streams", len(kept))
	if event {
		parks = clock.Stats().Parks - parks
	}
	return tap.Bytes(), parks
}

// TestDialEventMatchesPlainDial dials every method twice, from the run
// queue and from a goroutine that awaits each dial, and with the
// client's first or second dial refused: the event run must make every
// dial, segment and close, and hand every result over, at the instant
// and in the order the awaiting goroutine sees, and park nothing.
func TestDialEventMatchesPlainDial(t *testing.T) {
	for _, tn := range tunnels {
		for refuse := range 3 {
			t.Run(fmt.Sprintf("%s/refuse-%d", tn.name, refuse), func(t *testing.T) {
				plain, _ := dialTwice(t, tn.start, refuse, false)
				evented, parks := dialTwice(t, tn.start, refuse, true)
				if !bytes.Equal(plain, evented) {
					pl, el := bytes.Split(plain, []byte("\n")), bytes.Split(evented, []byte("\n"))
					for i := range min(len(pl), len(el)) {
						if !bytes.Equal(pl[i], el[i]) {
							t.Fatalf("trace line %d: %q with DialEvent, %q with the plain form", i, el[i], pl[i])
						}
					}
					t.Fatalf("traces of %d and %d lines", len(el), len(pl))
				}
				if parks != 0 {
					t.Errorf("the event run parked %d times", parks)
				}
			})
		}
	}
}

// TestFailedDialClosesItsConn fails a DialWrapped dial in its handshake
// and in its target prologue: either way the dial closes the conn it
// opened, and the server, waiting for the prologue, sees the close and
// closes its end.
func TestFailedDialClosesItsConn(t *testing.T) {
	errWrong := errors.New("wrong flight")
	for _, tc := range []struct{ name, sent, target string }{
		{"handshake", "no", "guard-0:9001"},
		{"prologue", "ok", string(make([]byte, 256))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			server := pt.Handshake{Steps: []pt.Step{pt.Send([]byte(tc.sent))}}
			srv, err := pt.ListenAndServe(w.server, 443, server, 1, func(string, netem.Stream) {
				t.Error("a failed dial reached the handler")
			})
			if err != nil {
				t.Fatal(err)
			}
			client := pt.Handshake{Steps: []pt.Step{pt.Expect([]byte("ok"), errWrong)}}
			var dialErr error
			w.net.Go(func() {
				_, dialErr = netem.Await(w.net.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
					return pt.DialWrapped(w.client, srv.Addr(), client, 2, tc.target, "test", done)
				})
			})
			w.net.Clock().Sleep(time.Minute)
			if dialErr == nil {
				t.Fatal("the dial succeeded")
			}
			if open := w.net.Acct().Snapshot().OpenConns(); open != 0 {
				t.Errorf("%d conn ends open after the dial failed with %v", open, dialErr)
			}
		})
	}
}
