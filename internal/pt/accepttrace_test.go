package pt_test

import (
	"bytes"
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
	"ptperf/internal/testkit/tracekit"
)

// acceptRig is a world whose network is tapped, with an echo service on
// extra:9001 for the handlers that forward. A server owns its listener
// and hands its accepted conn to code that needs a *netem.Conn, so no
// wrapper can stand between it and its conn; at the network's edge its
// writes are the segments, its reads the delivered count and its closes
// the closed count.
type acceptRig struct {
	*world
	tap *tracekit.Trace
}

func newAcceptRig(t *testing.T) *acceptRig {
	w := newWorld(t)
	r := &acceptRig{world: w, tap: tracekit.New(w.net).Tap(nil)}
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
	r.tap.Note("handler %s", target)
	r.net.Go(func() { r.echo(conn, 1500) })
}

// session dials through d, writes 1500 bytes, reads their echo and
// closes, noting each result.
func (r *acceptRig) session(d pt.Dialer) {
	conn, err := dial(r.net, d, "extra:9001")
	r.tap.Note("dialed %v", err)
	if err != nil {
		return
	}
	msg := bytes.Repeat([]byte("accept-trace/"), 116)[:1500]
	_, err = conn.Write(msg)
	r.tap.Note("wrote %v", err)
	got := make([]byte, len(msg))
	n, err := io.ReadFull(conn, got)
	r.tap.Note("read %d %v %v", n, err, bytes.Equal(got, msg))
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
		r.tap.Note("wrote %d %v", len(f), err)
	}
	conn.SetReadTimeout(5 * time.Minute)
	got, err := io.ReadAll(conn)
	r.tap.Note("read %d %v", len(got), err)
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
		srv, _ := obfs4.Transport(obfs4.Config{Secret: acceptKey, Seed: 1}).StartServer(r.server, 443, r.handler)
		r.session(obfs4.Transport(obfs4.Config{Secret: acceptKey, Seed: 2}).NewDialer(r.client, srv.Addr()))
	}},
	{"obfs4-refused", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := obfs4.Transport(obfs4.Config{Secret: acceptKey, Seed: 1}).StartServer(r.server, 443, r.handler)
		r.session(obfs4.Transport(obfs4.Config{Secret: []byte("wrong"), Seed: 2}).NewDialer(r.client, srv.Addr()))
	}},
	{"cloak", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := cloak.Transport(cloak.Config{UID: acceptKey, Seed: 1}).StartServer(r.server, 443, r.handler)
		r.session(cloak.Transport(cloak.Config{UID: acceptKey, Seed: 2}).NewDialer(r.client, srv.Addr()))
	}},
	// cloak as set 3 runs it: the server opens the target through an
	// event-form dialer.
	{"cloak-dialer", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := cloak.Transport(cloak.Config{UID: acceptKey, Seed: 1}).StartServer(r.server, 443, pt.HandleWithDialer(r.net.Clock(), pt.DialerFunc(func(target string, fn func(netem.Stream, error)) (netem.Stream, error, bool) {
			up, err, done := r.server.DialEvent(target, func(c *netem.Conn, err error) { fn(c, err) })
			return up, err, done
		})))
		r.session(cloak.Transport(cloak.Config{UID: acceptKey, Seed: 2}).NewDialer(r.client, srv.Addr()))
	}},
	{"shadowsocks", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := shadowsocks.Transport(shadowsocks.Config{PSK: acceptKey, Seed: 1}).StartServer(r.server, 8388, r.handler)
		r.session(shadowsocks.Transport(shadowsocks.Config{PSK: acceptKey, Seed: 2}).NewDialer(r.client, srv.Addr()))
	}},
	// shadowsocks as set 2 runs it: the server forwards to the target.
	{"shadowsocks-forward", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := shadowsocks.Transport(shadowsocks.Config{PSK: acceptKey, Seed: 1}).StartServer(r.server, 8388, pt.ForwardTo(r.server))
		r.session(shadowsocks.Transport(shadowsocks.Config{PSK: acceptKey, Seed: 2}).NewDialer(r.client, srv.Addr()))
	}},
	{"webtunnel", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := webtunnel.Transport(webtunnel.Config{SNI: "cdn", Seed: 1}).StartServer(r.server, 443, r.handler)
		r.session(webtunnel.Transport(webtunnel.Config{SNI: "cdn", Seed: 2}).NewDialer(r.client, srv.Addr()))
	}},
	// Bytes after the upgrade request's terminator, in its flight.
	{"webtunnel-overrun", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := webtunnel.Transport(webtunnel.Config{SNI: "cdn", Seed: 1}).StartServer(r.server, 443, r.handler)
		r.raw(t, srv.Addr(), webtunnelHello(), []byte("GET /tunnel HTTP/1.1\r\n\r\nearly"))
	}},
	// An upgrade request past the server's 4 KiB bound, in two flights.
	{"webtunnel-too-long", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := webtunnel.Transport(webtunnel.Config{SNI: "cdn", Seed: 1}).StartServer(r.server, 443, r.handler)
		long := append([]byte("GET /tunnel HTTP/1.1\r\nX: "), bytes.Repeat([]byte("a"), 3000)...)
		r.raw(t, srv.Addr(), webtunnelHello(), long, append(bytes.Repeat([]byte("b"), 2000), "\r\n\r\n"...))
	}},
	{"psiphon", time.Minute, func(t *testing.T, r *acceptRig) {
		srv, _ := psiphon.Transport(psiphon.Config{HostKey: acceptKey, Seed: 1}).StartServer(r.server, 22, r.handler)
		r.session(psiphon.Transport(psiphon.Config{HostKey: acceptKey, Seed: 2}).NewDialer(r.client, srv.Addr()))
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
			r.tap.Note("end")
			tracekit.Pin(t, r.tap, acceptTraceDigests[sc.name])
		})
	}
}
