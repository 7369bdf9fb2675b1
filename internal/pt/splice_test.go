package pt_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/tor"
)

// spliceRig is one Splice under test. The client host dials the splice
// host, whose accepted end (wire A) is spliced to a leg toward the
// upstream host (wire B). up is the upstream's raw end of wire B, and
// upW what the upstream writes through: up, or the leg's record layer.
type spliceRig struct {
	net   *netem.Network
	clock *netem.Clock
	c     netem.Stream // the client's end of wire A
	up    netem.Stream
	upW   io.Writer
	trace []byte
}

// record notes one observation: which side, what it returned and when.
func (r *spliceRig) record(side string, n int, err error) {
	r.trace = fmt.Appendf(r.trace, "%s %d %v %d\n", side, n, err, r.clock.Now())
}

// spliceLegs builds wire B for each kind of destination: the conn the
// splice host splices to, and the upstream's end of the wire.
var spliceLegs = []struct {
	kind string
	leg  func(t *testing.T, r *spliceRig, mid, upstream *netem.Host, accepted *netem.Chan[netem.Stream]) netem.Stream
}{
	{"netem", func(t *testing.T, r *spliceRig, mid, _ *netem.Host, accepted *netem.Chan[netem.Stream]) netem.Stream {
		b := mustDial(t, mid, "upstream:80")
		r.up, _ = accepted.Recv()
		r.upW = r.up
		return b
	}},
	{"record", func(t *testing.T, r *spliceRig, mid, _ *netem.Host, accepted *netem.Chan[netem.Stream]) netem.Stream {
		b, _ := pt.NewRecordConn(mustDial(t, mid, "upstream:80"), pt.RecordConfig{MaxPadding: 64, Seed: 5})
		r.up, _ = accepted.Recv()
		r.upW, _ = pt.NewRecordConn(r.up, pt.RecordConfig{MaxPadding: 64, Seed: 6})
		return b
	}},
	{"stream", func(t *testing.T, r *spliceRig, mid, _ *netem.Host, accepted *netem.Chan[netem.Stream]) netem.Stream {
		// A mechanism of the test's own moves the stream's bytes over
		// wire B: a goroutine that takes what was written every
		// millisecond, and a read sink that delivers what arrives.
		wire := mustDial(t, mid, "upstream:80").(*netem.Conn)
		b := pt.NewStream(r.clock, "test", "mid", "upstream", 64<<10)
		wire.SetReadSink(func(data []byte, base *[]byte, pool *sync.Pool, err error) {
			if err != nil {
				b.PeerFin(0)
				return
			}
			b.Deliver(data)
			if base != nil && pool != nil {
				pool.Put(base)
			}
		})
		r.net.Go(func() {
			var buf []byte
			for {
				if buf = b.Take(buf, 16<<10); len(buf) > 0 {
					if _, err := wire.Write(buf); err != nil {
						b.Fail()
						return
					}
				} else if b.Closed() {
					wire.CloseWrite()
					return
				}
				r.clock.Sleep(time.Millisecond)
			}
		})
		r.up, _ = accepted.Recv()
		r.upW = r.up
		return b
	}},
	{"tor", func(t *testing.T, r *spliceRig, mid, _ *netem.Host, accepted *netem.Chan[netem.Stream]) netem.Stream {
		dir := tor.NewDirectory()
		for i, role := range []struct {
			name  string
			flags tor.Flag
			loc   geo.Location
		}{{"guard", tor.FlagGuard | tor.FlagFast, geo.London}, {"middle", tor.FlagFast, geo.Frankfurt}, {"exit", tor.FlagExit | tor.FlagFast, geo.NewYork}} {
			h := r.net.MustAddHost(netem.HostConfig{Name: role.name, Location: role.loc, UplinkBps: 4 << 20, DownlinkBps: 4 << 20})
			if _, err := tor.StartRelay(tor.RelayConfig{Name: role.name, Host: h, Directory: dir, Flags: role.flags, Seed: int64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		client, err := tor.NewClient(tor.ClientConfig{Host: mid, Directory: dir, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := client.Dial("upstream:80")
		if err != nil {
			t.Fatal(err)
		}
		r.up, _ = accepted.Recv()
		r.upW = r.up
		return b
	}},
}

func mustDial(t *testing.T, h *netem.Host, addr string) netem.Stream {
	c, err := h.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newSpliceRig builds the hosts and wire A, and hands the splice host's
// accepted end to splice, on a goroutine of the splice host's, after
// delay.
func newSpliceRig(t *testing.T, leg func(*testing.T, *spliceRig, *netem.Host, *netem.Host, *netem.Chan[netem.Stream]) netem.Stream, delay time.Duration) *spliceRig {
	n := netem.New(netem.WithSeed(3))
	t.Cleanup(n.Clock().Shutdown)
	r := &spliceRig{net: n, clock: n.Clock()}
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto, UplinkBps: 2 << 20, DownlinkBps: 2 << 20})
	mid := n.MustAddHost(netem.HostConfig{Name: "mid", Location: geo.Frankfurt, UplinkBps: 3 << 20, DownlinkBps: 3 << 20})
	upstream := n.MustAddHost(netem.HostConfig{Name: "upstream", Location: geo.NewYork, UplinkBps: 1 << 20, DownlinkBps: 1 << 20})
	midLn, err := mid.Listen(443)
	if err != nil {
		t.Fatal(err)
	}
	upLn, err := upstream.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	accepted := netem.NewChan[netem.Stream](r.clock, 1)
	n.Go(func() {
		if c, err := upLn.Accept(); err == nil {
			accepted.Send(c)
		}
	})
	spliced := netem.NewChan[bool](r.clock, 1)
	n.Go(func() {
		a, err := midLn.Accept()
		if err != nil {
			return
		}
		r.clock.Sleep(delay)
		b := leg(t, r, mid, upstream, accepted)
		spliced.Send(true)
		pt.Splice(r.clock, a, b)
	})
	r.c = mustDial(t, client, "mid:443")
	if delay == 0 {
		spliced.Recv()
	}
	return r
}

// reader reads conn until an error, recording each read; pause is slept
// after every read.
func (r *spliceRig) reader(side string, conn netem.Stream, size int, pause time.Duration) {
	r.net.Go(func() {
		buf := make([]byte, size)
		for {
			n, err := conn.Read(buf)
			r.record(side+" read", n, err)
			if err != nil {
				return
			}
			r.clock.Sleep(pause)
		}
	})
}

// writer writes n bytes through w in one Write, records it, and then
// half-closes or closes conn.
func (r *spliceRig) writer(side string, w io.Writer, conn netem.Stream, n int, then func(netem.Stream)) {
	r.net.Go(func() {
		k, err := w.Write(bytes.Repeat([]byte("splice"), n/6+1)[:n])
		r.record(side+" wrote", k, err)
		if then != nil {
			then(conn)
		}
	})
}

func closeWrite(c netem.Stream) {
	if hc, ok := c.(pt.HalfCloser); ok {
		hc.CloseWrite()
	}
}

// spliceScenarios drive a rig; each runs for a minute of virtual time.
var spliceScenarios = []struct {
	name  string
	delay time.Duration
	run   func(r *spliceRig)
}{
	{"slow-destination", 0, func(r *spliceRig) {
		r.writer("client", r.c, r.c, 1<<20, closeWrite)
		r.reader("upstream", r.up, 4<<10, 5*time.Millisecond)
		r.reader("client", r.c, 32<<10, 0)
	}},
	{"both-directions", 0, func(r *spliceRig) {
		r.writer("client", r.c, r.c, 512<<10, closeWrite)
		r.writer("upstream", r.upW, r.upW.(netem.Stream), 512<<10, closeWrite)
		r.reader("upstream", r.up, 32<<10, 0)
		r.reader("client", r.c, 32<<10, 0)
	}},
	{"half-close", 0, func(r *spliceRig) {
		r.writer("client", r.c, r.c, 64<<10, closeWrite)
		r.reader("client", r.c, 32<<10, 0)
		r.net.Go(func() {
			buf := make([]byte, 32<<10)
			for {
				n, err := r.up.Read(buf)
				r.record("upstream read", n, err)
				if err != nil {
					break
				}
			}
			k, err := r.upW.Write(bytes.Repeat([]byte("back"), 16<<10))
			r.record("upstream wrote", k, err)
			r.up.Close()
		})
	}},
	{"reset", 0, func(r *spliceRig) {
		r.writer("client", r.c, r.c, 1<<20, closeWrite)
		r.reader("client", r.c, 32<<10, 0)
		r.net.Go(func() {
			buf := make([]byte, 16<<10)
			for i := 0; i < 3; i++ {
				n, err := r.up.Read(buf)
				r.record("upstream read", n, err)
			}
			r.up.(*netem.Conn).Abort()
			r.record("upstream abort", 0, nil)
		})
	}},
	{"early-bytes", 30 * time.Millisecond, func(r *spliceRig) {
		r.writer("client", r.c, r.c, 8<<10, closeWrite)
		r.reader("client", r.c, 32<<10, 0)
		r.net.Go(func() {
			for r.up == nil {
				r.clock.Sleep(time.Millisecond)
			}
			buf := make([]byte, 32<<10)
			for {
				n, err := r.up.Read(buf)
				r.record("upstream read", n, err)
				if err != nil {
					r.up.Close()
					return
				}
			}
		})
	}},
}

// spliceTraceDigests pins, per destination kind and scenario, a digest
// of every read and write on both wires with its instant and result.
// They were taken from the goroutine copy loop Splice was before it ran
// on clock events, and must not move.
var spliceTraceDigests = map[string]string{
	"netem/slow-destination":  "5167fa0752418973",
	"netem/both-directions":   "b901080396744927",
	"netem/half-close":        "f0cf3e801e7f1f33",
	"netem/reset":             "d5e8340e0a893d85",
	"netem/early-bytes":       "ee05c003ade115b5",
	"record/slow-destination": "4b9fbcf92a87e10a",
	"record/both-directions":  "b9d5432e3d46daf5",
	"record/half-close":       "7999a2d0894d12be",
	"record/reset":            "bcd36f0fcc298ff8",
	"record/early-bytes":      "21ef4d3edf64fc8a",
	"stream/slow-destination": "e84c206e145ce3b3",
	"stream/both-directions":  "96b32ac8a42d6434",
	"stream/half-close":       "94709ba0173692b7",
	"stream/reset":            "1ec69efd5c5e9470",
	"stream/early-bytes":      "4ceb5915aecf26d4",
	"tor/slow-destination":    "a38076822ce4e361",
	"tor/both-directions":     "360d843f9dd8dfb4",
	"tor/half-close":          "ab7398ad1c927e91",
	"tor/reset":               "264c2f77a9e48fe6",
	"tor/early-bytes":         "7a2c9708478b4756",
}

func TestSpliceWireTrace(t *testing.T) {
	for _, leg := range spliceLegs {
		for _, sc := range spliceScenarios {
			name := leg.kind + "/" + sc.name
			t.Run(name, func(t *testing.T) {
				r := newSpliceRig(t, leg.leg, sc.delay)
				sc.run(r)
				r.clock.Sleep(time.Minute)
				h := fnv.New64a()
				h.Write(r.trace)
				got := fmt.Sprintf("%016x", h.Sum64())
				if want := spliceTraceDigests[name]; got != want {
					t.Errorf("trace digest %s, want %s; trace:\n%s", got, want, r.trace)
				}
			})
		}
	}
}

// TestSpliceRegistersNoGoroutine holds Splice to its clock events: a
// 1 MiB splice registers no simulation goroutine from its start to its
// end.
func TestSpliceRegistersNoGoroutine(t *testing.T) {
	n := netem.New(netem.WithSeed(4))
	t.Cleanup(n.Clock().Shutdown)
	clock := n.Clock()
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	mid := n.MustAddHost(netem.HostConfig{Name: "mid", Location: geo.Frankfurt})
	upstream := n.MustAddHost(netem.HostConfig{Name: "upstream", Location: geo.NewYork, DownlinkBps: 1 << 20})
	midLn, err := mid.Listen(443)
	if err != nil {
		t.Fatal(err)
	}
	upLn, err := upstream.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var a, up netem.Stream
	n.Go(func() { a, _ = midLn.Accept() })
	n.Go(func() { up, _ = upLn.Accept() })
	c := mustDial(t, client, "mid:443")
	b := mustDial(t, mid, "upstream:80")
	for a == nil || up == nil {
		clock.Sleep(time.Millisecond)
	}
	got := netem.NewChan[int64](clock, 1)
	n.Go(func() {
		c.Write(make([]byte, 1<<20))
		closeWrite(c)
	})
	n.Go(func() {
		k, _ := io.Copy(io.Discard, up)
		up.Close()
		got.Send(k)
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
	pt.Splice(clock, a, b)
	k, _ := got.Recv()
	finished = true
	if k != 1<<20 {
		t.Fatalf("upstream got %d bytes, want %d", k, 1<<20)
	}
	if most > before {
		t.Errorf("a 1 MiB splice registered up to %d goroutines", most-before)
	}
}
