package testbed

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/testkit/tracekit"
	"ptperf/internal/tor"
)

// casePolicy is the policy a case's faults ride on, under the rig's tap:
// refuse turns a dial away, delay holds a segment back (an hour is a
// black hole), and seen learns of each segment once the tap has
// recorded it.
type casePolicy struct {
	refuse func(src, dst string) bool
	delay  func(f netem.Flow) time.Duration
	seen   func(f netem.Flow, n int)
}

func (p *casePolicy) FilterDial(src, dst string) error {
	if p.refuse != nil && p.refuse(src, dst) {
		return fmt.Errorf("dial refused")
	}
	return nil
}

func (p *casePolicy) ConnOpened(*netem.Conn) {}

func (p *casePolicy) FilterSegment(f netem.Flow, n int) netem.Verdict {
	if p.seen != nil {
		p.seen(f, n)
	}
	if p.delay != nil {
		if extra := p.delay(f); extra > 0 {
			return netem.Verdict{Action: netem.Impair, Extra: extra}
		}
	}
	return netem.Verdict{}
}

// dialRig is a small world with one method's deployment (TestClientDialTrace's
// is cloak, a set-3 one: the PT server runs the Tor client that dials each
// stream's target) and an echo service on echo:7, its network tapped.
type dialRig struct {
	w      *World
	d      *Deployment
	tap    *tracekit.Trace
	faults casePolicy
}

func newDialRig(t *testing.T, retry tor.RetryPolicy, method string) *dialRig {
	w, err := New(Options{Seed: 7, ByteScale: 0.1, Guards: 2, Middles: 2, Exits: 2, TrancoN: 4, CBLN: 4, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	r := &dialRig{w: w}
	r.tap = tracekit.New(w.Net).Tap(&r.faults)
	ln, err := w.Net.MustAddHost(netem.HostConfig{Name: "echo", Location: w.Opts.ClientLocation}).Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	w.Net.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			w.Net.Go(func() {
				buf := make([]byte, 1500)
				if _, err := io.ReadFull(c, buf); err == nil {
					c.Write(buf)
				}
			})
		}
	})
	r.d = mustDeploy(t, w, method)
	return r
}

// host is the host part of a "host:port" address.
func host(addr string) string { h, _, _ := strings.Cut(addr, ":"); return h }

// preheat builds the server-side client's circuit and notes its path.
func (r *dialRig) preheat() tor.Path {
	err := r.d.Preheat()
	p := r.d.tor.Path()
	r.tap.Note("preheat %v", err)
	return p
}

// session dials target through the deployment, writes 1500 bytes,
// reads their echo for up to ten minutes and closes, noting each
// result: the instants the application sees.
func (r *dialRig) session(target string) {
	conn, err := r.d.Dial(target)
	r.tap.Note("dialed %v", err)
	if err != nil {
		return
	}
	msg := bytes.Repeat([]byte("dial-trace/"), 137)[:1500]
	_, err = conn.Write(msg)
	r.tap.Note("wrote %v", err)
	conn.(netem.Stream).SetReadTimeout(10 * time.Minute)
	got := make([]byte, len(msg))
	n, err := io.ReadFull(conn, got)
	r.tap.Note("read %d %v %v", n, err, bytes.Equal(got, msg))
	conn.Close()
}

// relay finds the relay a descriptor names.
func (r *dialRig) relay(d *tor.Descriptor) *tor.Relay {
	for _, rl := range r.w.Relays() {
		if rl.Descriptor() == d {
			return rl
		}
	}
	return nil
}

// dialCases drive a rig; each then runs for its virtual span.
var dialCases = []struct {
	name  string
	retry tor.RetryPolicy
	span  time.Duration
	run   func(t *testing.T, r *dialRig)
}{
	// Two streams on the circuit Preheat built.
	{"live", tor.RetryPolicy{}, time.Minute, func(t *testing.T, r *dialRig) {
		r.preheat()
		r.session("echo:7")
		r.session("echo:7")
	}},
	// The first stream builds the circuit.
	{"cold", tor.RetryPolicy{}, time.Minute, func(t *testing.T, r *dialRig) {
		r.session("echo:7")
	}},
	// The middle crashes as the BEGIN leaves: the guard destroys the
	// circuit, and the stream is re-attached to a fresh one.
	{"reattach", tor.RetryPolicy{}, 5 * time.Minute, func(t *testing.T, r *dialRig) {
		p := r.preheat()
		middle, clock := r.relay(p.Middle), r.w.Net.Clock()
		r.faults.seen = func(f netem.Flow, n int) {
			if strings.HasPrefix(f.Src, "cloak-server-") && f.Dst == p.Guard.Addr {
				r.faults.seen = nil
				clock.EventAt(clock.Now(), func() { middle.Crash() })
			}
		}
		r.session("echo:7")
	}},
	// The guard black-holes the first CREATE: the CREATED read times
	// out, and the rebuild goes through.
	{"create-timeout", tor.RetryPolicy{}, 10 * time.Minute, func(t *testing.T, r *dialRig) {
		holes := 1
		r.faults.delay = func(f netem.Flow) time.Duration {
			if strings.HasPrefix(f.Dst, "guard-") && holes > 0 {
				holes--
				return time.Hour
			}
			return 0
		}
		r.session("echo:7")
	}},
	// The guard black-holes the first EXTEND: the build hits
	// BuildTimeout, and the rebuild goes through.
	{"extend-timeout", tor.RetryPolicy{}, 10 * time.Minute, func(t *testing.T, r *dialRig) {
		segs := 0
		r.faults.delay = func(f netem.Flow) time.Duration {
			if strings.HasPrefix(f.Dst, "guard-") {
				if segs++; segs == 2 {
					return time.Hour
				}
			}
			return 0
		}
		r.session("echo:7")
	}},
	// Every guard refuses the first two dials: each failed build backs
	// off, with jitter, before the next.
	{"backoff", tor.RetryPolicy{BackoffBase: 2 * time.Second}, 5 * time.Minute, func(t *testing.T, r *dialRig) {
		refusals := 2
		r.faults.refuse = func(src, dst string) bool {
			if strings.HasPrefix(dst, "guard-") && refusals > 0 {
				refusals--
				return true
			}
			return false
		}
		r.session("echo:7")
	}},
	// Every dial fails: the stream's build fails after its one retry.
	{"unreachable", tor.RetryPolicy{BackoffBase: time.Second, MaxBuildRetries: 1}, 5 * time.Minute, func(t *testing.T, r *dialRig) {
		r.faults.refuse = func(src, dst string) bool { return strings.HasPrefix(dst, "guard-") }
		r.session("echo:7")
	}},
	// The middle crashes as the BEGIN leaves and every guard refuses
	// from then on: the re-attach gets no circuit, and the stream is
	// abandoned.
	{"abandoned", tor.RetryPolicy{}, 5 * time.Minute, func(t *testing.T, r *dialRig) {
		p := r.preheat()
		middle, clock := r.relay(p.Middle), r.w.Net.Clock()
		r.faults.seen = func(f netem.Flow, n int) {
			if strings.HasPrefix(f.Src, "cloak-server-") && f.Dst == p.Guard.Addr {
				r.faults.seen = nil
				r.faults.refuse = func(src, dst string) bool { return strings.HasPrefix(dst, "guard-") }
				clock.EventAt(clock.Now(), func() { middle.Crash() })
			}
		}
		r.session("echo:7")
	}},
	// Two streams arrive together before any circuit: each builds one,
	// and the later build gives way to the circuit already in place.
	{"concurrent", tor.RetryPolicy{}, time.Minute, func(t *testing.T, r *dialRig) {
		r.w.Net.Go(func() { r.session("echo:7") })
		r.session("echo:7")
	}},
	// Four streams at once on a live circuit, and four while the
	// middle crashes under them.
	{"burst", tor.RetryPolicy{}, 5 * time.Minute, func(t *testing.T, r *dialRig) {
		p := r.preheat()
		for range 3 {
			r.w.Net.Go(func() { r.session("echo:7") })
		}
		r.session("echo:7")
		middle, clock := r.relay(p.Middle), r.w.Net.Clock()
		clock.EventAt(clock.Now()+100*time.Millisecond, func() { middle.Crash() })
		for range 3 {
			r.w.Net.Go(func() { r.session("echo:7") })
		}
		r.session("echo:7")
	}},
	// Nothing listens on echo:9: the exit refuses the BEGIN with END.
	{"begin-refused", tor.RetryPolicy{}, 5 * time.Minute, func(t *testing.T, r *dialRig) {
		r.preheat()
		r.session("echo:9")
		r.session("echo:7")
	}},
	// The exit's answers are held back an hour: CONNECTED times out.
	{"connected-timeout", tor.RetryPolicy{}, 10 * time.Minute, func(t *testing.T, r *dialRig) {
		p := r.preheat()
		r.faults.delay = func(f netem.Flow) time.Duration {
			if host(f.Src) == host(p.Exit.Addr) {
				return time.Hour
			}
			return 0
		}
		r.session("echo:7")
	}},
}

// dialTraceDigests pins, per case, a digest of the tapped trace. They
// were taken while the set-3 server dialed each stream on a goroutine
// of its own with the parking tor.Client.Dial, and must not move.
var dialTraceDigests = map[string]string{
	"live":              "84498dc8769908c7",
	"cold":              "78e28140acdc4683",
	"reattach":          "66eedf2d3f8eca12",
	"create-timeout":    "f8a4ab7afab2febf",
	"extend-timeout":    "f29b2f0ef4f13aea",
	"backoff":           "6a6ccac2c68cb413",
	"unreachable":       "5d268efc42f31afa",
	"abandoned":         "53e47bd075eaf200",
	"concurrent":        "33a39906bcbd0421",
	"burst":             "c9ac9b11e9098f4b",
	"begin-refused":     "6323b94386262c5d",
	"connected-timeout": "81f5ae623407c4f4",
}

// TestClientDialTrace pins every dial, segment and close a set-3
// server's Tor client makes for the streams it opens, as the network
// sees them, with the instants the application sees its dial, write and
// read end and the client's recovery counters: on a live circuit, a
// cold one, a re-attach after the circuit is destroyed, rebuilds after
// a black-holed CREATE and EXTEND, refused dials with backoff, a build
// that never succeeds, a stream abandoned, two builds at once, bursts of
// streams on a live circuit and on one that dies under them, a BEGIN
// refused and a CONNECTED that never comes.
func TestClientDialTrace(t *testing.T) {
	for _, tc := range dialCases {
		t.Run(tc.name, func(t *testing.T) {
			r := newDialRig(t, tc.retry, "cloak")
			tc.run(t, r)
			r.w.Net.Clock().Sleep(tc.span)
			r.tap.Note("end %+v", r.d.Recovery())
			tracekit.Pin(t, r.tap, dialTraceDigests[tc.name])
		})
	}
}
