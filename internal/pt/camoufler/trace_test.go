package camoufler

import (
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/testkit/tracekit"
)

// providerRig is an IM provider whose conns are traced, and two account
// holders on hosts of their own.
type providerRig struct {
	net        *netem.Network
	clock      *netem.Clock
	alice, bob *netem.Host
	trace      *tracekit.Trace
}

func newProviderRig(t *testing.T, cfg Config) *providerRig {
	n := netem.New(netem.WithSeed(6))
	t.Cleanup(n.Clock().Shutdown)
	r := &providerRig{net: n, clock: n.Clock(), trace: tracekit.New(n)}
	im := n.MustAddHost(netem.HostConfig{Name: "im", Location: geo.Frankfurt, UplinkBps: 4 << 20, DownlinkBps: 4 << 20})
	r.alice = n.MustAddHost(netem.HostConfig{Name: "alice", Location: geo.Toronto, UplinkBps: 2 << 20, DownlinkBps: 2 << 20})
	r.bob = n.MustAddHost(netem.HostConfig{Name: "bob", Location: geo.London, UplinkBps: 1 << 20, DownlinkBps: 1 << 20})
	s, err := StartIMServer(im, 5222, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := im.Listen(5223)
	if err != nil {
		t.Fatal(err)
	}
	ln.Serve(func(c *netem.Conn) { s.serveConn(r.trace.Calls(c, "provider "+c.RemoteAddr().String())) })
	return r
}

// login dials the provider from h and sends the login message of name.
func (r *providerRig) login(t *testing.T, h *netem.Host, name string) netem.Stream {
	c, err := h.Dial("im:5223")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMessage(c, new([]byte), name, 0, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

// send writes n messages of size bytes to the account to, each seq
// numbered from 1, on a goroutine of its own, and closes c after them
// if hangUp.
func (r *providerRig) send(c netem.Stream, to string, n, size int, hangUp bool) {
	r.net.Go(func() {
		var wbuf []byte
		for seq := 1; seq <= n; seq++ {
			if err := writeMessage(c, &wbuf, to, uint64(seq), make([]byte, size)); err != nil {
				break
			}
		}
		if hangUp {
			c.Close()
		}
	})
}

// receive reads messages from c after wait, with pause after each, and
// records each until a read fails.
func (r *providerRig) receive(c netem.Stream, wait, pause time.Duration) {
	r.net.Go(func() {
		r.clock.Sleep(wait)
		var rbuf []byte
		for {
			from, seq, payload, err := readMessage(c, &rbuf)
			r.trace.Printf("%d bob got %q %d %d %v\n", r.clock.Now(), from, seq, len(payload), err)
			if err != nil {
				return
			}
			r.clock.Sleep(pause)
		}
	})
}

// providerScenarios drive a rig; each then runs for two minutes of
// virtual time.
var providerScenarios = []struct {
	name string
	cfg  Config
	run  func(t *testing.T, r *providerRig)
}{
	{"login", Config{Seed: 1}, func(t *testing.T, r *providerRig) {
		c := r.login(t, r.alice, "alice")
		r.net.Go(func() {
			r.clock.Sleep(2 * time.Second)
			c.Close()
		})
	}},
	// 150 messages at once: each waits out its predecessor's slot of
	// the 64-a-second rate limit.
	{"burst", Config{Seed: 1, LossProb: -1}, func(t *testing.T, r *providerRig) {
		b := r.login(t, r.bob, "bob")
		r.receive(b, 0, 0)
		r.send(r.login(t, r.alice, "alice"), "bob", 150, 1000, false)
	}},
	// bob reads nothing for 3 s and then slowly: deliveries of 30 000 B
	// messages are refused by his full window and offered again.
	{"refused-delivery", Config{Seed: 1, LossProb: -1}, func(t *testing.T, r *providerRig) {
		b := r.login(t, r.bob, "bob")
		r.receive(b, 3*time.Second, 50*time.Millisecond)
		r.send(r.login(t, r.alice, "alice"), "bob", 40, 30000, false)
	}},
	// alice hangs up with messages still in flight: bob gets them and
	// her unavailable presence.
	{"hang-up", Config{Seed: 1, LossProb: -1}, func(t *testing.T, r *providerRig) {
		b := r.login(t, r.bob, "bob")
		r.receive(b, 0, 0)
		r.send(r.login(t, r.alice, "alice"), "bob", 60, 2000, true)
	}},
	{"lossy", Config{Seed: 3, LossProb: 0.3}, func(t *testing.T, r *providerRig) {
		b := r.login(t, r.bob, "bob")
		r.receive(b, 0, 0)
		r.send(r.login(t, r.alice, "alice"), "bob", 60, 500, false)
	}},
	// Messages to an account that is not online are dropped.
	{"stranger", Config{Seed: 1, LossProb: -1}, func(t *testing.T, r *providerRig) {
		r.send(r.login(t, r.alice, "alice"), "carol", 10, 100, true)
	}},
	// Messages written a few bytes at a time: the provider's reads of
	// each take several turns.
	{"trickle", Config{Seed: 1, LossProb: -1}, func(t *testing.T, r *providerRig) {
		b := r.login(t, r.bob, "bob")
		r.receive(b, 0, 0)
		a := r.login(t, r.alice, "alice")
		r.net.Go(func() {
			var msg []byte
			for seq := 1; seq <= 3; seq++ {
				msg, _ = appendMessage(msg, "bob", uint64(seq), make([]byte, 20))
			}
			for i := 0; i < len(msg); i += 7 {
				a.Write(msg[i:min(i+7, len(msg))])
				r.clock.Sleep(3 * time.Millisecond)
			}
		})
	}},
	{"bad-login", Config{Seed: 1}, func(t *testing.T, r *providerRig) {
		c, err := r.alice.Dial("im:5223")
		if err != nil {
			t.Fatal(err)
		}
		r.net.Go(func() { c.Write([]byte{0, 3, 1, 'a', 0}) })
	}},
	// A message that does not parse hangs alice's account up.
	{"bad-message", Config{Seed: 1, LossProb: -1}, func(t *testing.T, r *providerRig) {
		b := r.login(t, r.bob, "bob")
		r.receive(b, 0, 0)
		a := r.login(t, r.alice, "alice")
		r.send(a, "bob", 2, 100, false)
		r.net.Go(func() {
			r.clock.Sleep(time.Second)
			a.Write([]byte{0, 0})
		})
	}},
}

// providerTraceDigests pins, per scenario, a digest of every call the
// provider made on its conns with its instant and result, and of what
// bob received. They were taken while the provider read each account's
// messages with io.ReadFull on a goroutine of the account's own, which
// slept out the rate limit, and must not move.
var providerTraceDigests = map[string]string{
	"login":            "1e710a7109815510",
	"burst":            "a5e8c6e6cb9d4f26",
	"refused-delivery": "882d880e100487b7",
	"hang-up":          "2f94b84b9465b15b",
	"lossy":            "1bd56c3df97c7905",
	"stranger":         "5ebbfeecc9aa4aac",
	"trickle":          "e14405e0abebcc13",
	"bad-login":        "9d0c8a7af3cd99ef",
	"bad-message":      "fb36a2ec95247d03",
}

func TestIMProviderWireTrace(t *testing.T) {
	for _, sc := range providerScenarios {
		t.Run(sc.name, func(t *testing.T) {
			r := newProviderRig(t, sc.cfg)
			sc.run(t, r)
			r.clock.Sleep(2 * time.Minute)
			tracekit.Pin(t, r.trace, providerTraceDigests[sc.name])
		})
	}
}
