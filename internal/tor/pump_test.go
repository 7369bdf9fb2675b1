package tor

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/testkit/tracekit"
)

// pumpRig is a three-relay circuit over a first hop the test builds: the
// client dials port 443 of the guard's host, and what the guard accepts
// there goes to the guard relay's ServeConn, as a set-1 bridge's server
// hands it its streams.
type pumpRig struct {
	net    *netem.Network
	clock  *netem.Clock
	relays []*Relay // guard, middle, exit
	client *Client
	// server is the guard's end of the first hop as ServeConn got it.
	server netem.Stream
	// targets hands the target's accepted conns to the scenario.
	targets *netem.Chan[netem.Stream]
	trace   *tracekit.Trace
}

// firstHops builds each kind of first hop over the raw conn pair: the
// client's end and the guard's. A record end is a pt.RecordConn, a
// stream end a pt.Stream that tracekit.Stream moves over the raw conn in
// 2 KiB takes, and a bare end the raw conn itself.
var firstHops = []struct {
	kind           string
	client, server func(r *pumpRig, raw *netem.Conn) netem.Stream
}{
	{"record", recordEnd(5), recordEnd(6)},
	{"stream", streamEnd, bareEnd},
	{"flusher", bareEnd, streamEnd},
}

func recordEnd(seed int64) func(*pumpRig, *netem.Conn) netem.Stream {
	return func(_ *pumpRig, raw *netem.Conn) netem.Stream {
		rc, _ := pt.NewRecordConn(raw, pt.RecordConfig{MaxPadding: 64, Seed: seed})
		return rc
	}
}

func bareEnd(_ *pumpRig, raw *netem.Conn) netem.Stream { return raw }

func streamEnd(r *pumpRig, raw *netem.Conn) netem.Stream { return tracekit.Stream(r.clock, raw, 2<<10) }

// newPumpRig starts the relays, the guard's first-hop server, a target
// host listening on port 80 and a client pinned to the three relays
// whose first hop is hop's.
func newPumpRig(t *testing.T, seed int64, client, server func(*pumpRig, *netem.Conn) netem.Stream) *pumpRig {
	n := netem.New(netem.WithSeed(seed))
	t.Cleanup(n.Clock().Shutdown)
	r := &pumpRig{net: n, clock: n.Clock(), targets: netem.NewChan[netem.Stream](n.Clock(), 0), trace: tracekit.New(n)}
	for i, role := range []struct {
		name  string
		flags Flag
		loc   geo.Location
	}{{"guard", FlagGuard | FlagFast, geo.London}, {"middle", FlagFast, geo.Frankfurt}, {"exit", FlagExit | FlagFast, geo.NewYork}} {
		h := n.MustAddHost(netem.HostConfig{Name: role.name, Location: role.loc, UplinkBps: 4 << 20, DownlinkBps: 4 << 20})
		relay, err := StartRelay(RelayConfig{Name: role.name, Host: h, Flags: role.flags, Seed: int64(i + 1), Unpublished: true})
		if err != nil {
			t.Fatal(err)
		}
		r.relays = append(r.relays, relay)
	}
	guard := r.relays[0]
	ln, err := guard.Host().Listen(443)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s := server(r, c.(*netem.Conn))
			r.server = s
			n.Go(func() { guard.ServeConn(s) })
		}
	})
	web := n.MustAddHost(netem.HostConfig{Name: "target", Location: geo.NewYork, UplinkBps: 4 << 20, DownlinkBps: 4 << 20})
	tl, err := web.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		for {
			c, err := tl.Accept()
			if err != nil {
				return
			}
			r.targets.Send(c)
		}
	})
	host := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto, UplinkBps: 2 << 20, DownlinkBps: 2 << 20})
	r.client, err = NewClient(ClientConfig{
		Host:  host,
		Guard: guard.Descriptor(), Middle: r.relays[1].Descriptor(), Exit: r.relays[2].Descriptor(),
		Seed: 9,
		DialFirstHop: pt.DialerFunc(func(string, func(netem.Stream, error)) (netem.Stream, error, bool) {
			raw, err := host.Dial("guard:443")
			if err != nil {
				return nil, err, true
			}
			return client(r, raw.(*netem.Conn)), nil, true
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// serveTarget runs fn on the target's end of the next stream, on a
// goroutine of the target's.
func (r *pumpRig) serveTarget(fn func(c netem.Stream)) {
	r.net.Go(func() {
		c, _ := r.targets.Recv()
		fn(c)
	})
}

// answer reads a 1 KiB request off c and writes size bytes back.
func (r *pumpRig) answer(c netem.Stream, size int) {
	k, err := io.ReadFull(c, make([]byte, 1<<10))
	r.trace.Record("target read", k, err)
	k, err = c.Write(bytes.Repeat([]byte("cellpump"), size/8+1)[:size])
	r.trace.Record("target wrote", k, err)
}

// request dials the target, sends a 1 KiB request and reads the answer
// on a goroutine of the client's, size bytes a read, pausing after each.
func (r *pumpRig) request(size int, pause time.Duration) {
	s, err := r.client.Dial("target:80")
	r.trace.Record("client dial", 0, err)
	if err != nil {
		return
	}
	k, err := s.Write(bytes.Repeat([]byte("q"), 1<<10))
	r.trace.Record("client wrote", k, err)
	r.net.Go(func() {
		buf := make([]byte, size)
		for {
			n, err := s.Read(buf)
			r.trace.Record("client read", n, err)
			if err != nil {
				return
			}
			r.clock.Sleep(pause)
		}
	})
}

// after runs fn on a goroutine of its own d from now.
func (r *pumpRig) after(d time.Duration, fn func()) {
	at := r.clock.Now() + d
	r.net.Go(func() {
		r.clock.SleepUntil(at)
		fn()
	})
}

// pumpScenarios drive a rig from its driver; each then runs for half a
// minute of virtual time.
var pumpScenarios = []struct {
	name string
	run  func(r *pumpRig)
}{
	// 700 KiB back is more than a circuit window, so the client sends
	// circuit and stream SENDMEs and the exit waits for them.
	{"bulk", func(r *pumpRig) {
		r.serveTarget(func(c netem.Stream) {
			r.answer(c, 700<<10)
			c.Close()
		})
		r.request(16<<10, 0)
	}},
	// The exit dies mid-transfer: the middle tears the circuit down and
	// a DESTROY comes back through the guard.
	{"destroy", func(r *pumpRig) {
		r.serveTarget(func(c netem.Stream) {
			r.answer(c, 700<<10)
			c.Close()
		})
		r.request(16<<10, 0)
		r.after(300*time.Millisecond, func() { r.trace.Record("exit crash", 0, nil); r.relays[2].Crash() })
	}},
	// The guard's end of the first hop writes part of a cell and
	// closes once the stream has gone quiet.
	{"eof-mid-cell", func(r *pumpRig) {
		r.serveTarget(func(c netem.Stream) {
			r.answer(c, 4<<10)
		})
		r.request(16<<10, 0)
		r.after(time.Second, func() {
			k, err := r.server.Write(bytes.Repeat([]byte{7}, 100))
			r.trace.Record("guard wrote", k, err)
			r.clock.Sleep(10 * time.Millisecond)
			r.server.Close()
		})
	}},
	// The guard dies while the cells it has flushed wait to be written
	// to its end of the first hop.
	{"guard-crash", func(r *pumpRig) {
		r.serveTarget(func(c netem.Stream) {
			r.answer(c, 700<<10)
			c.Close()
		})
		r.request(16<<10, 0)
		r.after(230*time.Millisecond, func() { r.trace.Record("guard crash", 0, nil); r.relays[0].Crash() })
	}},
	// The target resets its end while the exit waits for a slow
	// client's SENDMEs.
	{"target-close", func(r *pumpRig) {
		r.serveTarget(func(c netem.Stream) {
			r.answer(c, 400<<10)
			r.clock.Sleep(50 * time.Millisecond)
			r.trace.Record("target abort", 0, nil)
			c.(*netem.Conn).Abort()
		})
		r.request(4<<10, 20*time.Millisecond)
	}},
	// A 600 KiB request on each of two streams to a target that reads
	// 1 KiB every 10 ms: the exit's DATA writes wait on the target's
	// window, and the middle's forwards wait behind them (two streams'
	// windows hold more than one link's).
	{"upload", func(r *pumpRig) {
		for i := range 2 {
			side := fmt.Sprintf("target %d read", i)
			r.serveTarget(func(c netem.Stream) {
				buf := make([]byte, 1<<10)
				for {
					k, err := io.ReadFull(c, buf)
					r.trace.Record(side, k, err)
					if err != nil {
						return
					}
					r.clock.Sleep(10 * time.Millisecond)
				}
			})
		}
		for range 2 {
			r.net.Go(func() {
				s, err := r.client.Dial("target:80")
				r.trace.Record("client dial", 0, err)
				if err != nil {
					return
				}
				k, err := s.Write(bytes.Repeat([]byte("u"), 600<<10))
				r.trace.Record("client wrote", k, err)
				s.Close()
			})
		}
	}},
	// The middle dies mid-download: the guard sees its downstream link
	// end and tears the circuit down both ways, and the exit its
	// upstream link.
	{"middle-crash", func(r *pumpRig) {
		r.serveTarget(func(c netem.Stream) {
			r.answer(c, 700<<10)
			c.Close()
		})
		r.request(16<<10, 0)
		r.after(300*time.Millisecond, func() { r.trace.Record("middle crash", 0, nil); r.relays[1].Crash() })
	}},
	// A stream to a port with no listener: the exit's dial fails and an
	// END comes back; a stream after it still goes through.
	{"begin-refused", func(r *pumpRig) {
		_, err := r.client.Dial("target:81")
		r.trace.Record("client dial refused", 0, err)
		r.serveTarget(func(c netem.Stream) {
			r.answer(c, 4<<10)
			c.Close()
		})
		r.request(16<<10, 0)
	}},
}

// pumpTraceDigests pins, per first hop and scenario, a digest of every
// read and write at both ends of the circuit with its instant and
// result, the circuit's close error and each relay's scheduler counts.
// They were taken while the client's read loop, its SENDME sends, the
// guard's PT-link flusher and the exit's pump were goroutines (the
// upload, middle-crash and begin-refused rows while every relay's link
// loop, its dials and its destroys were), and must not move.
var pumpTraceDigests = map[string]string{
	"record/bulk":           "bcf481bb1492190f",
	"record/destroy":        "7d9c417e28b0d4ef",
	"record/eof-mid-cell":   "a552d468bc5509f5",
	"record/guard-crash":    "966720b95468ac10",
	"record/target-close":   "3a83ffeca5c51e53",
	"record/upload":         "4109f1a583aee45b",
	"record/middle-crash":   "a46f6b029a628c26",
	"record/begin-refused":  "0aa95bb3e6877a06",
	"stream/bulk":           "4c2dafa5597e9373",
	"stream/destroy":        "65da1ef312abf278",
	"stream/eof-mid-cell":   "7324505d718624c0",
	"stream/guard-crash":    "7f8548946ad7692f",
	"stream/target-close":   "4235c79b443847ba",
	"stream/upload":         "6e343ecbd4c6dc2f",
	"stream/middle-crash":   "068ab1523f2f0780",
	"stream/begin-refused":  "5ed476ccfc217840",
	"flusher/bulk":          "0bc6ada9c271d186",
	"flusher/destroy":       "b5c3fde4466bf740",
	"flusher/eof-mid-cell":  "e535ed80f66c4268",
	"flusher/guard-crash":   "f10ee25b09bc7494",
	"flusher/target-close":  "02c39aeb4de7c88a",
	"flusher/upload":        "6fe0366f02c6e6de",
	"flusher/middle-crash":  "6cc8e98e16e4d9db",
	"flusher/begin-refused": "1346ed53a1622363",
}

func TestCellPumpWireTrace(t *testing.T) {
	for _, hop := range firstHops {
		for _, sc := range pumpScenarios {
			name := hop.kind + "/" + sc.name
			t.Run(name, func(t *testing.T) {
				r := newPumpRig(t, 3, hop.client, hop.server)
				sc.run(r)
				r.clock.Sleep(30 * time.Second)
				var closeErr error
				if circ := r.client.circ; circ != nil {
					closeErr = circ.closeErr
					r.trace.Record("circuit closed "+fmt.Sprint(circ.closed), 0, closeErr)
				}
				for _, relay := range r.relays {
					st := relay.SchedStats()
					r.trace.Printf("%s queued %d flushed %d dropped %d\n", relay.Name(), st.Queued, st.Flushed, st.Dropped)
				}
				if sc.name == "eof-mid-cell" && hop.kind != "flusher" && !errors.Is(closeErr, io.ErrUnexpectedEOF) {
					t.Errorf("a first hop that ends mid-cell closed the circuit with %v, want %v", closeErr, io.ErrUnexpectedEOF)
				}
				tracekit.Pin(t, r.trace, pumpTraceDigests[name])
			})
		}
	}
}

// TestCircuitRegistersNoGoroutine holds the client and the relays to
// their clock events: over a pt.RecordConn first hop, a circuit build, a
// Dial and a 1 MiB download register no goroutine (the target's writer
// is spawned before the count starts). The relays' link pumps, the
// guard's flusher and the exit's pump are no goroutines, and a link's
// accept goroutine ends at its first wait (up to 3 more, the relays'
// link loops, while those were goroutines).
func TestCircuitRegistersNoGoroutine(t *testing.T) {
	r := newPumpRig(t, 4, recordEnd(5), recordEnd(6))
	clock := r.clock
	const size = 1 << 20
	r.serveTarget(func(c netem.Stream) {
		c.Write(make([]byte, size))
		c.Close()
	})
	before, most, finished := clock.Registered(), 0, false
	var sample func()
	sample = func() {
		most = max(most, clock.Registered())
		if !finished {
			clock.EventAt(clock.Now()+time.Millisecond, sample)
		}
	}
	clock.EventAt(clock.Now(), sample)
	s, err := r.client.Dial("target:80")
	if err != nil {
		t.Fatal(err)
	}
	k, err := io.Copy(io.Discard, s)
	finished = true
	if err != nil || k != size {
		t.Fatalf("read %d bytes (%v), want %d", k, err, size)
	}
	if most > before {
		t.Errorf("a build, a Dial and a 1 MiB download registered up to %d goroutines, want none", most-before)
	}
}
