package pt_test

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/camoufler"
	"ptperf/internal/pt/cloak"
	"ptperf/internal/pt/conjure"
	"ptperf/internal/pt/dnstt"
	"ptperf/internal/pt/marionette"
	"ptperf/internal/pt/meek"
	"ptperf/internal/pt/obfs4"
	"ptperf/internal/pt/psiphon"
	"ptperf/internal/pt/shadowsocks"
	"ptperf/internal/pt/snowflake"
	"ptperf/internal/pt/stegotorus"
	"ptperf/internal/pt/webtunnel"
	"ptperf/internal/testkit"
)

// tunnels starts each of the 13 access methods' client-to-server legs in
// a test world, with every budget, loss and churn model off so that any
// number of bytes passes: "tor" is the vanilla leg, a plain netem conn
// with the target prologue. payload is the size of the echo
// TestTunnelsEndToEnd sends through the leg.
var tunnels = []struct {
	name    string
	payload int
	start   func(w *world, h pt.StreamHandler) (pt.Dialer, error)
}{
	{"tor", 60_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		srv, err := pt.ListenAndServe(w.server, 9001, pt.Handshake{}, 0, h)
		if err != nil {
			return nil, err
		}
		return pt.DialerFunc(func(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
			return pt.DialWrapped(w.client, srv.Addr(), pt.Handshake{}, 0, target, "tor", done)
		}), nil
	}},
	{"obfs4", 60_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		srv, err := obfs4.Transport(obfs4.Config{Secret: tunnelKey, Seed: 1}).StartServer(w.server, 443, h)
		if err != nil {
			return nil, err
		}
		return obfs4.Transport(obfs4.Config{Secret: tunnelKey, Seed: 2}).NewDialer(w.client, srv.Addr()), nil
	}},
	{"meek", 30_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		bridge, err := meek.StartBridge(w.server, 7002, meek.Config{Seed: 1, SessionBudgetMedian: -1}, h)
		if err != nil {
			return nil, err
		}
		front, err := meek.StartFront(w.extra, 443, meek.Config{Seed: 2}, bridge.Addr())
		if err != nil {
			return nil, err
		}
		return meek.NewDialer(w.client, front.Addr(), meek.Config{Seed: 3}), nil
	}},
	{"conjure", 40_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		bridge, err := conjure.StartBridge(w.server, 4443, conjure.Config{Secret: tunnelKey, Seed: 1}, h)
		if err != nil {
			return nil, err
		}
		inf, err := conjure.StartInfra(w.extra, w.extra2, 53000, 443, conjure.Config{Secret: tunnelKey, Seed: 2}, bridge.Addr())
		if err != nil {
			return nil, err
		}
		return conjure.NewDialer(w.client, inf.RegistrarAddr(), inf.PhantomAddr(), conjure.Config{Secret: tunnelKey, Seed: 3}), nil
	}},
	{"webtunnel", 50_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		cfg := webtunnel.Config{SNI: "cdn.example", Seed: 1}
		srv, err := webtunnel.Transport(cfg).StartServer(w.server, 443, h)
		if err != nil {
			return nil, err
		}
		cfg.Seed = 2
		return webtunnel.Transport(cfg).NewDialer(w.client, srv.Addr()), nil
	}},
	{"dnstt", 20_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		srv, err := dnstt.StartServer(w.server, 5300, dnstt.Config{Seed: 1, BudgetMedian: -1}, h)
		if err != nil {
			return nil, err
		}
		res, err := dnstt.StartResolver(w.extra, 443, dnstt.Config{Seed: 2, BudgetMedian: -1}, srv.Addr())
		if err != nil {
			return nil, err
		}
		return dnstt.NewDialer(w.client, res.Addr(), dnstt.Config{Seed: 3, BudgetMedian: -1}), nil
	}},
	{"snowflake", 40_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		bridge, err := snowflake.StartBridge(w.server, 7001, h)
		if err != nil {
			return nil, err
		}
		dep, err := snowflake.Deploy(w.extra, 443, snowflake.Config{Seed: 4, ProxyLifetime: -1})
		if err != nil {
			return nil, err
		}
		return snowflake.NewDialer(w.client, dep.BrokerAddr(), bridge.Addr()), nil
	}},
	{"psiphon", 50_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		srv, err := psiphon.Transport(psiphon.Config{HostKey: tunnelKey, Seed: 1}).StartServer(w.server, 22, h)
		if err != nil {
			return nil, err
		}
		return psiphon.Transport(psiphon.Config{HostKey: tunnelKey, Seed: 2}).NewDialer(w.client, srv.Addr()), nil
	}},
	{"shadowsocks", 100_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		srv, err := shadowsocks.Transport(shadowsocks.Config{PSK: tunnelKey, Seed: 1}).StartServer(w.server, 8388, h)
		if err != nil {
			return nil, err
		}
		return shadowsocks.Transport(shadowsocks.Config{PSK: tunnelKey, Seed: 2}).NewDialer(w.client, srv.Addr()), nil
	}},
	{"stegotorus", 80_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		srv, err := stegotorus.StartServer(w.server, 8080, stegotorus.Config{Seed: 8}, h)
		if err != nil {
			return nil, err
		}
		return stegotorus.NewDialer(w.client, srv.Addr(), stegotorus.Config{Seed: 9}), nil
	}},
	{"camoufler", 20_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		im, err := camoufler.StartIMServer(w.extra, 5222, camoufler.Config{Seed: 5, LossProb: -1})
		if err != nil {
			return nil, err
		}
		proxy, err := camoufler.StartProxy(w.server, im.Addr(), "acct", camoufler.Config{Seed: 6, LossProb: -1}, h)
		if err != nil {
			return nil, err
		}
		return camoufler.NewDialer(w.client, im.Addr(), "acct", camoufler.Config{Seed: 7, LossProb: -1}, proxy), nil
	}},
	{"cloak", 16_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		cfg := cloak.Config{UID: tunnelKey, Seed: 1}
		srv, err := cloak.Transport(cfg).StartServer(w.server, 443, h)
		if err != nil {
			return nil, err
		}
		cfg.Seed = 2
		return cloak.Transport(cfg).NewDialer(w.client, srv.Addr()), nil
	}},
	{"marionette", 4_000, func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
		srv, err := marionette.StartServer(w.server, 2121, marionette.FTPWithCapacity(marionette.DefaultCapacity), 10, h)
		if err != nil {
			return nil, err
		}
		return marionette.NewDialer(w.client, srv.Addr(), marionette.FTPWithCapacity(marionette.DefaultCapacity), 11)
	}},
}

var tunnelKey = []byte("tunnel-test-key")

// TestTunnelsEndToEnd drives a full bidirectional transfer of each
// leg's payload through it.
func TestTunnelsEndToEnd(t *testing.T) {
	for _, tn := range tunnels {
		t.Run(tn.name, func(t *testing.T) {
			w := newWorld(t)
			d, err := tn.start(w, echoHandler(t, w, "guard-0:9001"))
			if err != nil {
				t.Fatal(err)
			}
			exerciseEcho(t, w, d, tn.payload)
		})
	}
}

// TestTunnelsCoverEveryMethod: the table above is the 13 access methods.
func TestTunnelsCoverEveryMethod(t *testing.T) {
	want := append([]string{"tor"}, pt.Names()...)
	if len(tunnels) != len(want) {
		t.Fatalf("%d tunnels, %d methods", len(tunnels), len(want))
	}
	for i, tn := range tunnels {
		if tn.name != want[i] {
			t.Errorf("tunnel %d is %q, method %d is %q", i, tn.name, i, want[i])
		}
	}
}

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecordPathAllocationBudget holds every method's framing loop to
// what it costs once its conns' buffers have grown and the pools are
// warm: 1 MiB up and 1 MiB down through an open tunnel allocate under a
// sixteenth of what they move. A make per record, per poll, per message
// or per block is eight to sixty times that.
func TestRecordPathAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const each = 1 << 20
	// See TestAccessAllocationBudget for why the collector and the
	// other Ps are off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tn := range tunnels {
		t.Run(tn.name, func(t *testing.T) {
			w := newWorld(t)
			defer w.net.Clock().Shutdown()
			d, err := tn.start(w, spawned(w, func(_ string, conn netem.Stream) {
				defer conn.Close()
				io.Copy(conn, conn)
			}))
			if err != nil {
				t.Fatal(err)
			}
			conn, err := dial(w.net, d, "guard-0:9001")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			up, down := bytes.Repeat([]byte("record-path/"), each/12+1)[:each], make([]byte, each)
			done := netem.NewChan[error](w.net.Clock(), 1)
			move := func() {
				w.net.Go(func() {
					_, err := conn.Write(up)
					done.Send(err)
				})
				if _, err := io.ReadFull(conn, down); err != nil {
					t.Fatalf("read: %v", err)
				}
				if err, _ := done.Recv(); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			// Warm-up grows every kept buffer and fills the pools; its
			// second pass starts, as the measured one will, with the
			// tunnel's pipeline already full.
			move()
			move()
			got := allocated(move)
			t.Logf("%d bytes allocated moving %d each way", got, each)
			if !bytes.Equal(down, up) {
				t.Fatal("payload corrupted through the tunnel")
			}
			if got > 2*each/16 {
				t.Errorf("a warm tunnel allocated %d bytes moving %d each way, more than a sixteenth", got, each)
			}
		})
	}
}

// TestWritersCopyBeforeReturn: a record conn and every framer hand their
// inner conn a buffer they overwrite for the next record, so whatever a
// frame is written to must have copied it when Write returns. For every
// method's conn, and for a bare pt.Stream, a buffer scribbled over right
// after Write reaches the reader as it was written.
func TestWritersCopyBeforeReturn(t *testing.T) {
	const size = 100_000 // several records, segments, polls, messages and blocks
	pattern := func() []byte { return bytes.Repeat([]byte("written-once/"), size/13+1)[:size] }
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xff
		}
	}
	t.Run("pt.Stream", func(t *testing.T) {
		s := pt.NewStream(netem.NewClock(), "test", "a", "b", size)
		buf := pattern()
		if _, err := s.Write(buf); err != nil {
			t.Fatal(err)
		}
		scribble(buf)
		if got := s.Take(nil, size); !bytes.Equal(got, pattern()) {
			t.Fatal("Take returned bytes written after Write came back")
		}
	})
	for _, tn := range tunnels {
		t.Run(tn.name, func(t *testing.T) {
			w := newWorld(t)
			defer w.net.Clock().Shutdown()
			type read struct {
				got []byte
				err error
			}
			arrived := netem.NewChan[read](w.net.Clock(), 1)
			d, err := tn.start(w, spawned(w, func(_ string, conn netem.Stream) {
				defer conn.Close()
				got := make([]byte, size)
				_, err := io.ReadFull(conn, got)
				arrived.Send(read{got, err})
			}))
			if err != nil {
				t.Fatal(err)
			}
			conn, err := dial(w.net, d, "guard-0:9001")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			buf := pattern()
			if _, err := conn.Write(buf); err != nil {
				t.Fatal(err)
			}
			scribble(buf)
			r, _ := arrived.Recv()
			if r.err != nil {
				t.Fatal(r.err)
			}
			if !bytes.Equal(r.got, pattern()) {
				t.Fatal("the reader saw bytes written after Write came back")
			}
		})
	}
}

// reenter is an inner conn whose Write calls back.
type reenter struct {
	netem.Stream
	write func()
}

func (r reenter) WriteEvent(p []byte, _ func()) (int, error, bool) {
	r.write()
	return len(p), nil, true
}

// TestRecordConnWriteRefusesReentry: a second writer arriving while the
// first is inside the inner conn's Write would seal into the frame being
// sent; that is a bug in the caller, not a race to lose.
func TestRecordConnWriteRefusesReentry(t *testing.T) {
	var rc *pt.RecordConn
	rc, _ = pt.NewRecordConn(reenter{write: func() { rc.Write([]byte("second")) }}, pt.RecordConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("a Write inside a Write went through")
		}
	}()
	rc.Write([]byte("first"))
}

// TestVanishedClientIsReaped drives the shared staleness path through
// both polling transports: the client's host drops off the network
// without closing anything, and the server must cut the session — EOF
// into the handler — after one quiet window, not sooner and not never.
func TestVanishedClientIsReaped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(w *world, handle pt.StreamHandler) (pt.Dialer, error)
	}{
		{"meek", func(w *world, handle pt.StreamHandler) (pt.Dialer, error) {
			cfg := meek.Config{Seed: 1, SessionBudgetMedian: -1}
			bridge, err := meek.StartBridge(w.server, 443, cfg, handle)
			if err != nil {
				return nil, err
			}
			front, err := meek.StartFront(w.extra, 443, cfg, bridge.Addr())
			if err != nil {
				return nil, err
			}
			return meek.NewDialer(w.client, front.Addr(), cfg), nil
		}},
		{"dnstt", func(w *world, handle pt.StreamHandler) (pt.Dialer, error) {
			cfg := dnstt.Config{Seed: 1, BudgetMedian: -1}
			srv, err := dnstt.StartServer(w.server, 53, cfg, handle)
			if err != nil {
				return nil, err
			}
			res, err := dnstt.StartResolver(w.extra, 443, cfg, srv.Addr())
			if err != nil {
				return nil, err
			}
			return dnstt.NewDialer(w.client, res.Addr(), cfg), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			clock := w.net.Clock()
			ended := netem.NewChan[time.Duration](clock, 1)
			d, err := tc.start(w, spawned(w, func(_ string, conn netem.Stream) {
				io.Copy(io.Discard, conn)
				ended.Send(clock.Now())
				conn.Close()
			}))
			if err != nil {
				t.Fatal(err)
			}
			conn, err := dial(w.net, d, "guard-0:9001")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			clock.Sleep(5 * time.Second)
			if ended.Len() != 0 {
				t.Fatal("handler saw EOF while the client was polling")
			}
			vanished := clock.Now()
			w.net.Acct().AbortHostConns("client")

			at, _, timedOut, _ := ended.RecvUntilEvent(clock.Now()+4*pt.StaleAfter, nil)
			if timedOut {
				t.Fatal("the vanished client's session was never cut")
			}
			if quiet := at - vanished; quiet < pt.StaleAfter || quiet >= 2*pt.StaleAfter {
				t.Fatalf("session cut %v after the client vanished, want within [%v, %v)", quiet, pt.StaleAfter, 2*pt.StaleAfter)
			}
		})
	}
}

// TestGoroutinesPerDial pins how many simulation goroutines one open
// tunnel keeps alive: the growth of Clock.Registered across a Dial and an
// 8 KiB echo through it. The server's handler is one of them for every
// method; the rest is each mechanism's own pumps, loops and pollers. A
// receiver or a hop on a pt.FrameConn is none (meek's front, bridge and
// poll cycle, dnstt's three hops), and neither is a paced sender on clock
// events (marionette's automaton walks, camoufler's delivery chains),
// nor the IM provider's read loops (3 for camoufler while they were
// goroutines).
func TestGoroutinesPerDial(t *testing.T) {
	want := map[string]int{
		"tor": 1, "obfs4": 1, "webtunnel": 1, "psiphon": 1, "shadowsocks": 1, "cloak": 1, "dnstt": 1, "stegotorus": 1, "meek": 1,
		"marionette": 1,
		"camoufler":  1,
		"conjure":    1, "snowflake": 1,
	}
	for _, tn := range tunnels {
		t.Run(tn.name, func(t *testing.T) {
			w := newWorld(t)
			clock := w.net.Clock()
			d, err := tn.start(w, spawned(w, func(_ string, conn netem.Stream) {
				defer conn.Close()
				io.Copy(conn, conn)
			}))
			if err != nil {
				t.Fatal(err)
			}
			before := clock.Registered()
			conn, err := dial(w.net, d, "guard-0:9001")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			msg := bytes.Repeat([]byte("goroutines/"), 8<<10/11+1)[:8<<10]
			if _, err := conn.Write(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, make([]byte, len(msg))); err != nil {
				t.Fatal(err)
			}
			if got := clock.Registered() - before; got != want[tn.name] {
				t.Errorf("a dial and an echo left %+d goroutines, want %+d", got, want[tn.name])
			}
		})
	}
}
