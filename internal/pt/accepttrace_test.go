package pt_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
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
)

// wireTap is a netem.Policy that passes everything and records what the
// servers' conn calls put on the network: every dial with its verdict
// and every segment, each at its instant, with the bytes read out of
// every pipe and the conns closed so far. A server owns its listener and
// hands its accepted conn to code that needs a *netem.Conn, so no
// wrapper can stand between it and its conn; at the network's edge its
// writes are the segments, its reads the delivered count and its closes
// the closed count.
type wireTap struct {
	net   *netem.Network
	trace []byte
}

func (w *wireTap) note(format string, args ...any) {
	a := w.net.Acct().Snapshot()
	w.trace = fmt.Appendf(w.trace, "%d %d %d ", w.net.Now(), a.BytesDelivered, a.ConnsClosed)
	w.trace = fmt.Appendf(w.trace, format+"\n", args...)
}

func (w *wireTap) FilterDial(src, dst string) error {
	w.note("dial %s %s", src, dst)
	return nil
}

func (w *wireTap) ConnOpened(c *netem.Conn) { w.note("open %s %s", c.LocalAddr(), c.RemoteAddr()) }

func (w *wireTap) FilterSegment(f netem.Flow, n int) netem.Verdict {
	w.note("segment %s %s %d", f.Src, f.Dst, n)
	return netem.Verdict{}
}

// acceptRig is a world whose network is tapped, with an echo service on
// extra:9001 for the handlers that forward.
type acceptRig struct {
	*world
	tap *wireTap
}

func newAcceptRig(t *testing.T) *acceptRig {
	w := newWorld(t)
	r := &acceptRig{world: w, tap: &wireTap{net: w.net}}
	w.net.SetPolicy(r.tap)
	ln, err := w.extra.Listen(9001)
	if err != nil {
		t.Fatal(err)
	}
	w.net.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			w.net.Go(func() { r.echo(c, 1500) })
		}
	})
	return r
}

// echo reads n bytes from c and writes them back.
func (r *acceptRig) echo(c netem.Stream, n int) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return
	}
	c.Write(buf)
}

// handler notes the stream a server hands on and echoes its first 1500
// bytes on a goroutine of its own.
func (r *acceptRig) handler(target string, conn netem.Stream) {
	r.tap.note("handler %s", target)
	r.net.Go(func() { r.echo(conn, 1500) })
}

// session dials through d, writes 1500 bytes, reads their echo and
// closes, noting each result.
func (r *acceptRig) session(d pt.Dialer) {
	conn, err := d.Dial("extra:9001")
	r.tap.note("dialed %v", err)
	if err != nil {
		return
	}
	msg := bytes.Repeat([]byte("accept-trace/"), 116)[:1500]
	_, err = conn.Write(msg)
	r.tap.note("wrote %v", err)
	got := make([]byte, len(msg))
	n, err := io.ReadFull(conn, got)
	r.tap.note("read %d %v %v", n, err, bytes.Equal(got, msg))
	conn.Close()
}

// raw dials addr from the client, writes each of flights, then reads
// until the conn ends or five minutes pass, noting what it got.
func (r *acceptRig) raw(t *testing.T, addr string, flights ...[]byte) {
	conn, err := r.client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flights {
		_, err := conn.Write(f)
		r.tap.note("wrote %d %v", len(f), err)
	}
	conn.SetReadTimeout(5 * time.Minute)
	got, err := io.ReadAll(conn)
	r.tap.note("read %d %v", len(got), err)
	conn.Close()
}

// webtunnelHello is a client hello webtunnel's server accepts.
func webtunnelHello() []byte {
	return append([]byte{0x16, 0x03, 0x01}, append(make([]byte, 32), 3, 'c', 'd', 'n')...)
}

var acceptKey = []byte("accept-trace-key")

// acceptScenarios drive a rig; each then runs for its virtual span.
var acceptScenarios = []struct {
	name string
	span time.Duration
	run  func(t *testing.T, r *acceptRig)
}{
	{"obfs4", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := obfs4.StartServer(r.server, 443, obfs4.Config{Secret: acceptKey, Seed: 1}, r.handler)
		r.session(obfs4.NewDialer(r.client, srv.Addr(), obfs4.Config{Secret: acceptKey, Seed: 2}))
	}},
	{"obfs4-refused", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := obfs4.StartServer(r.server, 443, obfs4.Config{Secret: acceptKey, Seed: 1}, r.handler)
		r.session(obfs4.NewDialer(r.client, srv.Addr(), obfs4.Config{Secret: []byte("wrong"), Seed: 2}))
	}},
	{"cloak", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := cloak.StartServer(r.server, 443, cloak.Config{UID: acceptKey, Seed: 1}, r.handler)
		r.session(cloak.NewDialer(r.client, srv.Addr(), cloak.Config{UID: acceptKey, Seed: 2}))
	}},
	// cloak as set 3 runs it: the server opens the target through a
	// dialer that parks.
	{"cloak-dialer", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := cloak.StartServer(r.server, 443, cloak.Config{UID: acceptKey, Seed: 1},
			pt.HandleWithDialer(r.net.Clock(), r.server.Dial))
		r.session(cloak.NewDialer(r.client, srv.Addr(), cloak.Config{UID: acceptKey, Seed: 2}))
	}},
	{"shadowsocks", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := shadowsocks.StartServer(r.server, 8388, shadowsocks.Config{PSK: acceptKey, Seed: 1}, r.handler)
		r.session(shadowsocks.NewDialer(r.client, srv.Addr(), shadowsocks.Config{PSK: acceptKey, Seed: 2}))
	}},
	// shadowsocks as set 2 runs it: the server forwards to the target.
	{"shadowsocks-forward", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := shadowsocks.StartServer(r.server, 8388, shadowsocks.Config{PSK: acceptKey, Seed: 1}, pt.ForwardTo(r.server))
		r.session(shadowsocks.NewDialer(r.client, srv.Addr(), shadowsocks.Config{PSK: acceptKey, Seed: 2}))
	}},
	{"webtunnel", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := webtunnel.StartServer(r.server, 443, webtunnel.Config{SNI: "cdn", Seed: 1}, r.handler)
		r.session(webtunnel.NewDialer(r.client, srv.Addr(), webtunnel.Config{SNI: "cdn", Seed: 2}))
	}},
	// Bytes after the upgrade request's terminator, in its flight.
	{"webtunnel-overrun", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := webtunnel.StartServer(r.server, 443, webtunnel.Config{SNI: "cdn", Seed: 1}, r.handler)
		r.raw(t, srv.Addr(), webtunnelHello(), []byte("GET /tunnel HTTP/1.1\r\n\r\nearly"))
	}},
	// An upgrade request past the server's 4 KiB bound, in two flights.
	{"webtunnel-too-long", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := webtunnel.StartServer(r.server, 443, webtunnel.Config{SNI: "cdn", Seed: 1}, r.handler)
		long := append([]byte("GET /tunnel HTTP/1.1\r\nX: "), bytes.Repeat([]byte("a"), 3000)...)
		r.raw(t, srv.Addr(), webtunnelHello(), long, append(bytes.Repeat([]byte("b"), 2000), "\r\n\r\n"...))
	}},
	{"psiphon", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := psiphon.StartServer(r.server, 22, psiphon.Config{HostKey: acceptKey, Seed: 1}, r.handler)
		r.session(psiphon.NewDialer(r.client, srv.Addr(), psiphon.Config{HostKey: acceptKey, Seed: 2}))
	}},
	// The bridge behind conjure's registrar and station.
	{"conjure", time.Minute, func(t *testing.T, r *acceptRig) {
		bridge, _ := conjure.StartBridge(r.server, 4443, conjure.Config{Secret: acceptKey, Seed: 1}, r.handler)
		inf, err := conjure.StartInfra(r.extra, r.extra2, 53000, 443, conjure.Config{Secret: acceptKey, Seed: 2}, bridge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		r.session(conjure.NewDialer(r.client, inf.RegistrarAddr(), inf.PhantomAddr(), conjure.Config{Secret: acceptKey, Seed: 3}))
	}},
	{"conjure-unregistered", time.Minute, func(t *testing.T, r *acceptRig) {
		bridge, _ := conjure.StartBridge(r.server, 4443, conjure.Config{Secret: acceptKey, Seed: 1}, r.handler)
		inf, err := conjure.StartInfra(r.extra, r.extra2, 53000, 443, conjure.Config{Secret: acceptKey, Seed: 2}, bridge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		r.raw(t, inf.PhantomAddr(), make([]byte, 20), make([]byte, 12))
	}},
	{"marionette", time.Minute, func(t *testing.T, r *acceptRig) {
		model := marionette.FTPWithCapacity(marionette.DefaultCapacity)
		srv, err := marionette.StartServer(r.server, 2121, model, 10, r.handler)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := marionette.NewDialer(r.client, srv.Addr(), model, 11)
		r.session(d)
	}},
	// snowflake's broker, a volunteer proxy and the bridge.
	{"snowflake", time.Minute, func(t *testing.T, r *acceptRig) {
		bridge, _ := snowflake.StartBridge(r.server, 7001, r.handler)
		dep, err := snowflake.Deploy(r.extra, 443, snowflake.Config{Seed: 4, Proxies: 2, ProxyLifetime: -1})
		if err != nil {
			t.Fatal(err)
		}
		r.session(snowflake.NewDialer(r.client, dep.BrokerAddr(), bridge.Addr()))
	}},
	{"stegotorus", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := stegotorus.StartServer(r.server, 8080, stegotorus.Config{Seed: 8}, r.handler)
		r.session(stegotorus.NewDialer(r.client, srv.Addr(), stegotorus.Config{Seed: 9}))
	}},
	// Two of a fan-out's four conns, the second's preamble in two
	// writes: the session goes stale and both are closed.
	{"stegotorus-incomplete", 6 * time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := stegotorus.StartServer(r.server, 8080, stegotorus.Config{Seed: 8}, r.handler)
		r.net.Go(func() { r.raw(t, srv.Addr(), []byte{0, 0, 0, 0, 0, 0, 0, 7, 0, 4}) })
		r.raw(t, srv.Addr(), []byte{0, 0, 0, 0, 0}, []byte{0, 0, 7, 1, 4})
	}},
	{"meek", time.Minute, func(t *testing.T, r *acceptRig) {
		bridge, _ := meek.StartBridge(r.server, 7002, meek.Config{Seed: 1, SessionBudgetMedian: -1}, r.handler)
		front, _ := meek.StartFront(r.extra, 443, meek.Config{Seed: 2}, bridge.Addr())
		r.session(meek.NewDialer(r.client, front.Addr(), meek.Config{Seed: 3}))
	}},
	{"dnstt", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := dnstt.StartServer(r.server, 5300, dnstt.Config{Seed: 1}, r.handler)
		res, _ := dnstt.StartResolver(r.extra2, 443, dnstt.Config{Seed: 2}, srv.Addr())
		r.session(dnstt.NewDialer(r.client, res.Addr(), dnstt.Config{Seed: 3}))
	}},
	{"camoufler", time.Minute, func(t *testing.T, r *acceptRig) {
		cfg := camoufler.Config{Seed: 5, LossProb: -1}
		im, _ := camoufler.StartIMServer(r.extra2, 5222, cfg)
		proxy, _ := camoufler.StartProxy(r.server, im.Addr(), "acct", cfg, r.handler)
		r.session(camoufler.NewDialer(r.client, im.Addr(), "acct", cfg, proxy))
	}},
}

// acceptTraceDigests pins, per scenario, a digest of the tapped trace.
// They were taken while every server's accept path ran on the goroutine
// netem.Listener.Serve spawned for each conn, and must not move.
var acceptTraceDigests = map[string]string{
	"obfs4":                 "c5b294cb267b667b",
	"obfs4-refused":         "29cbeb31bbd406b6",
	"cloak":                 "8c0186064a2e3497",
	"cloak-dialer":          "50a34f15106c629d",
	"shadowsocks":           "9e355dc2955ae31a",
	"shadowsocks-forward":   "37030c505d55ad38",
	"webtunnel":             "421bde2be0af5f54",
	"webtunnel-overrun":     "6ff4549c065af9f0",
	"webtunnel-too-long":    "e56de31a36e66c80",
	"psiphon":               "b9370c391dda72a5",
	"conjure":               "4b71305aeeddc15a",
	"conjure-unregistered":  "7d2571b804dabf71",
	"marionette":            "c811f11ed18e27d2",
	"snowflake":             "2f4da85a44b403ff",
	"stegotorus":            "0c704cd191512045",
	"stegotorus-incomplete": "3dbe9234792f7793",
	"meek":                  "33ef9008f57b6eff",
	"dnstt":                 "cac9598622d421db",
	"camoufler":             "055cc0f5323f4dfe",
}

// TestServerAcceptTrace pins every conn call a PT server makes from
// accept through its first records, as the network sees them: the
// instant and size of each write, the reads' progress and each close,
// the dials it makes, and the instant it hands the stream on.
func TestServerAcceptTrace(t *testing.T) {
	for _, sc := range acceptScenarios {
		t.Run(sc.name, func(t *testing.T) {
			r := newAcceptRig(t)
			sc.run(t, r)
			r.net.Clock().Sleep(sc.span)
			r.tap.note("end")
			h := fnv.New64a()
			h.Write(r.tap.trace)
			got := fmt.Sprintf("%016x", h.Sum64())
			if want := acceptTraceDigests[sc.name]; got != want {
				t.Errorf("trace digest %s, want %s; trace:\n%s", got, want, r.tap.trace)
			}
		})
	}
}
