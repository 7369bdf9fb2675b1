package pt_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ptperf/internal/geo"
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
	"ptperf/internal/testkit/streamtest"
)

// world is a tiny topology: client, pt-server and an echo destination.
type world struct {
	net    *netem.Network
	client *netem.Host
	server *netem.Host
	extra  *netem.Host
	extra2 *netem.Host
}

func newWorld(t *testing.T) *world {
	t.Helper()
	n := netem.New(netem.WithSeed(21))
	t.Cleanup(n.Clock().Shutdown)
	return &world{
		net:    n,
		client: n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.London}),
		server: n.MustAddHost(netem.HostConfig{Name: "pt-server", Location: geo.Frankfurt}),
		extra:  n.MustAddHost(netem.HostConfig{Name: "extra", Location: geo.Frankfurt}),
		extra2: n.MustAddHost(netem.HostConfig{Name: "extra2", Location: geo.NewYork}),
	}
}

// spawned runs h on a goroutine of its own. A server calls its handler
// from a clock event, where nothing may park, so a handler that reads or
// writes with the parking calls spawns itself.
func spawned(w *world, h pt.StreamHandler) pt.StreamHandler {
	return func(target string, conn netem.Stream) { w.net.Go(func() { h(target, conn) }) }
}

// dial dials target through d from a goroutine, which awaits the event
// form parked.
func dial(n *netem.Network, d pt.Dialer, target string) (netem.Stream, error) {
	return netem.Await(n.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return d.DialEvent(target, done)
	})
}

// echoHandler records the target and echoes bytes until EOF.
func echoHandler(t *testing.T, w *world, wantTarget string) pt.StreamHandler {
	return spawned(w, func(target string, conn netem.Stream) {
		if target != wantTarget {
			t.Errorf("handler target = %q want %q", target, wantTarget)
		}
		defer conn.Close()
		io.Copy(conn, conn)
	})
}

// exerciseEcho drives a full bidirectional transfer through a dialer.
func exerciseEcho(t *testing.T, w *world, d pt.Dialer, payloadLen int) {
	t.Helper()
	conn, err := dial(w.net, d, "guard-0:9001")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte("pluggable-transport-payload/"), payloadLen/28+1)[:payloadLen]
	done := netem.NewChan[error](w.net.Clock(), 1)
	w.net.Go(func() {
		_, err := conn.Write(msg)
		done.Send(err)
	})
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err, _ := done.Recv(); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted through transport")
	}
}

func TestObfs4RejectsWrongSecret(t *testing.T) {
	w := newWorld(t)
	srv, err := obfs4.StartServer(w.server, 443, obfs4.Config{Secret: []byte("right"), Seed: 1}, func(string, netem.Stream) {
		t.Error("unauthorized client reached the handler")
	})
	if err != nil {
		t.Fatal(err)
	}
	d := obfs4.NewDialer(w.client, srv.Addr(), obfs4.Config{Secret: []byte("wrong"), Seed: 2})
	conn, err := dial(w.net, d, "guard-0:9001")
	if err == nil {
		// The server drops us during the handshake; the failure may
		// surface on first read instead of dial.
		conn.SetReadTimeout(50 * time.Millisecond)
		buf := make([]byte, 1)
		if _, rerr := conn.Read(buf); rerr == nil {
			t.Fatal("probe with wrong secret should not produce data")
		}
		conn.Close()
	}
}

func TestShadowsocksZeroRTTFasterThanObfs4(t *testing.T) {
	w := newWorld(t)
	psk := []byte("k")
	ssrv, _ := shadowsocks.StartServer(w.server, 8388, shadowsocks.Config{PSK: psk}, echoHandler(t, w, "g:1"))
	osrv, _ := obfs4.StartServer(w.server, 443, obfs4.Config{Secret: psk}, echoHandler(t, w, "g:1"))

	measure := func(d pt.Dialer) time.Duration {
		start := w.net.Now()
		conn, err := dial(w.net, d, "g:1")
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte{1})
		io.ReadFull(conn, make([]byte, 1))
		el := w.net.Since(start)
		conn.Close()
		return el
	}
	ss := measure(shadowsocks.NewDialer(w.client, ssrv.Addr(), shadowsocks.Config{PSK: psk}))
	ob := measure(obfs4.NewDialer(w.client, osrv.Addr(), obfs4.Config{Secret: psk}))
	if ss >= ob {
		t.Fatalf("zero-RTT shadowsocks (%v) should beat 1-RTT obfs4 (%v)", ss, ob)
	}
}

func TestPsiphonRejectsWrongHostKey(t *testing.T) {
	w := newWorld(t)
	srv, err := psiphon.StartServer(w.server, 22, psiphon.Config{HostKey: []byte("right"), Seed: 1}, echoHandler(t, w, "x"))
	if err != nil {
		t.Fatal(err)
	}
	d := psiphon.NewDialer(w.client, srv.Addr(), psiphon.Config{HostKey: []byte("evil"), Seed: 2})
	if _, err := dial(w.net, d, "x"); !errors.Is(err, psiphon.ErrHostKey) {
		t.Fatalf("MITM host key must be rejected: %v, want %v", err, psiphon.ErrHostKey)
	}
}

// TestCloakClientHalfClose: the cloak client's CloseWrite must reach
// the netem conn as a half-close, not a Close. The server reads EOF
// after the request, and the client still reads what the server sends
// afterwards.
func TestCloakClientHalfClose(t *testing.T) {
	w := newWorld(t)
	cfg := cloak.Config{UID: []byte("cloak-uid"), Seed: 1}
	srv, err := cloak.StartServer(w.server, 443, cfg, spawned(w, func(_ string, conn netem.Stream) {
		defer conn.Close()
		req, err := io.ReadAll(conn)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		conn.Write(append([]byte("after EOF: "), req...))
	}))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	conn, err := dial(w.net, cloak.NewDialer(w.client, srv.Addr(), cfg), "origin:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("request")); err != nil {
		t.Fatal(err)
	}
	if err := conn.(pt.HalfCloser).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != "after EOF: request" {
		t.Fatalf("read after CloseWrite = %q, %v", got, err)
	}
}

func TestConjureUnregisteredFlowDropped(t *testing.T) {
	w := newWorld(t)
	secret := []byte("s")
	bridge, _ := conjure.StartBridge(w.server, 4443, conjure.Config{Secret: secret}, func(string, netem.Stream) {
		t.Error("unregistered flow reached bridge")
	})
	inf, err := conjure.StartInfra(w.extra, w.extra2, 53000, 443, conjure.Config{Secret: secret}, bridge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Dial the phantom directly without registering.
	conn, err := w.client.Dial(inf.PhantomAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(make([]byte, 32))
	conn.SetReadTimeout(50 * time.Millisecond)
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("station must not answer unregistered flows")
	}
}

func TestDnsttRespCapLimitsThroughput(t *testing.T) {
	w := newWorld(t)
	sink := spawned(w, func(target string, conn netem.Stream) {
		defer conn.Close()
		conn.Write(make([]byte, 8<<10)) // 8 KiB downstream
		io.Copy(io.Discard, conn)
	})
	srv, _ := dnstt.StartServer(w.server, 5300, dnstt.Config{Seed: 1}, sink)
	res, _ := dnstt.StartResolver(w.extra, 443, dnstt.Config{Seed: 2}, srv.Addr())

	d := dnstt.NewDialer(w.client, res.Addr(), dnstt.Config{Seed: 3})
	conn, err := dial(w.net, d, "g:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := w.net.Now()
	if _, err := io.ReadFull(conn, make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	elapsed := w.net.Since(start)
	// 8 KiB needs ≥16 responses of ≤512 B; with 4 in-flight polls each
	// costing at least one client↔resolver↔server round trip, that is
	// ≥4 full RTT generations — far slower than one bulk response.
	rtt := geo.RTT(geo.London, geo.Frankfurt)
	if elapsed < rtt {
		t.Fatalf("dnstt moved 8 KiB in %v — response cap is not limiting", elapsed)
	}
}

func TestDnsttResolverBudgetThrottles(t *testing.T) {
	w := newWorld(t)
	blob := make([]byte, 64<<10)
	sink := spawned(w, func(target string, conn netem.Stream) {
		defer conn.Close()
		conn.Write(blob)
		io.Copy(io.Discard, conn)
	})
	cfg := dnstt.Config{Seed: 1, BudgetMedian: 4 << 10}
	srv, _ := dnstt.StartServer(w.server, 5300, cfg, sink)
	res, _ := dnstt.StartResolver(w.extra, 443, cfg, srv.Addr())

	d := dnstt.NewDialer(w.client, res.Addr(), cfg)
	conn, err := dial(w.net, d, "g:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadTimeout(300 * time.Millisecond)
	got := 0
	buf := make([]byte, 4<<10)
	for {
		n, err := conn.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	if got >= len(blob) {
		t.Fatalf("throttled session still moved %d of %d bytes", got, len(blob))
	}
}

func TestMeekSessionBudgetCutsBulk(t *testing.T) {
	w := newWorld(t)
	blob := make([]byte, 1<<20)
	sink := spawned(w, func(target string, conn netem.Stream) {
		defer conn.Close()
		conn.Write(blob)
	})
	// A tiny budget guarantees the cut.
	bridge, _ := meek.StartBridge(w.server, 7002, meek.Config{Seed: 9, SessionBudgetMedian: 64 << 10}, sink)
	front, _ := meek.StartFront(w.extra, 443, meek.Config{Seed: 2}, bridge.Addr())

	d := meek.NewDialer(w.client, front.Addr(), meek.Config{Seed: 3})
	conn, err := dial(w.net, d, "g:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := 0
	buf := make([]byte, 32<<10)
	for {
		n, err := conn.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	if got >= len(blob) {
		t.Fatalf("budgeted session still delivered %d of %d", got, len(blob))
	}
	if got == 0 {
		t.Fatal("some bytes should arrive before the cut")
	}
}

func TestSnowflakeProxyChurnBreaksTransfer(t *testing.T) {
	w := newWorld(t)
	blob := make([]byte, 4<<20)
	sink := spawned(w, func(target string, conn netem.Stream) {
		defer conn.Close()
		conn.Write(blob)
	})
	bridge, _ := snowflake.StartBridge(w.server, 7001, sink)
	// Very short proxy lifetimes: transfers should break mid-flight.
	dep, err := snowflake.Deploy(w.extra, 443, snowflake.Config{
		Seed:          4,
		Proxies:       2,
		ProxyLifetime: 3 * time.Second,
		ProxyUplink:   256 << 10, // slow volunteers: the 4 MiB needs ~16 s
	})
	if err != nil {
		t.Fatal(err)
	}

	d := snowflake.NewDialer(w.client, dep.BrokerAddr(), bridge.Addr())
	conn, err := dial(w.net, d, "g:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := 0
	buf := make([]byte, 64<<10)
	for {
		n, err := conn.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	if got >= len(blob) {
		t.Fatalf("churn should break the transfer; got all %d bytes", got)
	}
}

func TestCamouflerSingleStreamOnly(t *testing.T) {
	w := newWorld(t)
	im, _ := camoufler.StartIMServer(w.extra, 5222, camoufler.Config{Seed: 5, LossProb: -1})
	hold := netem.NewChan[struct{}](w.net.Clock(), 1)
	proxy, _ := camoufler.StartProxy(w.server, im.Addr(), "acct", camoufler.Config{Seed: 6, LossProb: -1}, spawned(w, func(target string, conn netem.Stream) {
		hold.Recv()
		conn.Close()
	}))
	d := camoufler.NewDialer(w.client, im.Addr(), "acct", camoufler.Config{Seed: 7, LossProb: -1}, proxy)
	c1, err := dial(w.net, d, "g:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dial(w.net, d, "g:1"); err != camoufler.ErrBusy {
		t.Fatalf("second concurrent stream: want ErrBusy, got %v", err)
	}
	hold.Close()
	c1.Close()
	// After releasing, a new stream is possible.
	c2, err := dial(w.net, d, "g:1")
	if err != nil {
		t.Fatalf("sequential re-dial should work: %v", err)
	}
	c2.Close()
}

func TestCamouflerRateLimitPacesBulk(t *testing.T) {
	w := newWorld(t)
	cfgFast := camoufler.Config{Seed: 5, LossProb: -1, RatePerSec: 1000}
	cfgSlow := camoufler.Config{Seed: 5, LossProb: -1, RatePerSec: 20}

	run := func(cfg camoufler.Config, port int) time.Duration {
		im, _ := camoufler.StartIMServer(w.extra, port, cfg)
		blob := make([]byte, 256<<10)
		proxy, _ := camoufler.StartProxy(w.server, im.Addr(), fmt.Sprintf("a%d", port), cfg, spawned(w, func(target string, conn netem.Stream) {
			defer conn.Close()
			conn.Write(blob)
		}))
		d := camoufler.NewDialer(w.client, im.Addr(), fmt.Sprintf("a%d", port), cfg, proxy)
		conn, err := dial(w.net, d, "g:1")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := w.net.Now()
		if _, err := io.ReadFull(conn, make([]byte, len(blob))); err != nil {
			t.Fatal(err)
		}
		return w.net.Since(start)
	}
	fast := run(cfgFast, 5223)
	slow := run(cfgSlow, 5224)
	if slow < 2*fast {
		t.Fatalf("IM rate limit should dominate: slow=%v fast=%v", slow, fast)
	}
}

func TestMarionetteModelValidate(t *testing.T) {
	bad := &marionette.Model{Start: "a", Data: "b", States: map[string][]marionette.Transition{
		"a": {{To: "missing", Weight: 1}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("undefined states must fail validation")
	}
	if err := marionette.FTPWithCapacity(marionette.DefaultCapacity).Validate(); err != nil {
		t.Fatalf("bundled model invalid: %v", err)
	}
}

func TestMarionetteSlowerThanObfs4(t *testing.T) {
	w := newWorld(t)
	secret := []byte("k")
	osrv, _ := obfs4.StartServer(w.server, 443, obfs4.Config{Secret: secret}, echoHandler(t, w, "g:1"))
	msrv, _ := marionette.StartServer(w.server, 2121, marionette.FTPWithCapacity(marionette.DefaultCapacity), 12, echoHandler(t, w, "g:1"))

	const payload = 16 << 10
	measure := func(d pt.Dialer) time.Duration {
		start := w.net.Now()
		conn, err := dial(w.net, d, "g:1")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		msg := make([]byte, payload)
		w.net.Go(func() { conn.Write(msg) })
		if _, err := io.ReadFull(conn, make([]byte, payload)); err != nil {
			t.Fatal(err)
		}
		return w.net.Since(start)
	}
	od := obfs4.NewDialer(w.client, osrv.Addr(), obfs4.Config{Secret: secret})
	md, _ := marionette.NewDialer(w.client, msrv.Addr(), marionette.FTPWithCapacity(marionette.DefaultCapacity), 13)
	ot := measure(od)
	mt := measure(md)
	if mt < 4*ot {
		t.Fatalf("marionette (%v) should be ≫ slower than obfs4 (%v)", mt, ot)
	}
}

func TestInfosComplete(t *testing.T) {
	if len(pt.Infos) != 12 {
		t.Fatalf("the paper evaluates 12 PTs, Infos has %d", len(pt.Infos))
	}
	cats := pt.ByCategory()
	if len(cats[pt.ProxyLayer]) != 4 || len(cats[pt.Tunneling]) != 3 ||
		len(cats[pt.Mimicry]) != 3 || len(cats[pt.FullyEncrypted]) != 2 {
		t.Fatalf("category split wrong: %v", cats)
	}
	for _, name := range pt.Names() {
		info, ok := pt.InfoFor(name)
		if !ok || info.Name != name {
			t.Fatalf("InfoFor(%q) broken", name)
		}
	}
	if info, _ := pt.InfoFor("camoufler"); info.ParallelStreams {
		t.Fatal("camoufler must not claim parallel streams")
	}
	if _, ok := pt.InfoFor("nonesuch"); ok {
		t.Fatal("unknown transport should not resolve")
	}
}

func TestRecordConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ra, err := pt.NewRecordConn(streamtest.Plain(a), pt.RecordConfig{MaxPadding: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := pt.NewRecordConn(streamtest.Plain(b), pt.RecordConfig{MaxPadding: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("record"), 10000)
	go ra.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(rb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("record layer corrupted data")
	}
}

// TestRecordTagsRefuse holds psiphon's and shadowsocks's tags to what a
// relay cell's digest refuses (tor's TestCorruptCellRefused,
// TestDigestCountersDetectReplay and TestMisdeliveredCellRefused): a
// record with any one bit flipped, a record out of order or replayed,
// and a record sealed under another key are each refused where the
// server reads them, and no byte of their payload is handed out.
func TestRecordTagsRefuse(t *testing.T) {
	codecs := []struct {
		name string
		end  func(secret string, isClient bool) pt.RecordCodec
	}{
		{"psiphon", func(secret string, isClient bool) pt.RecordCodec {
			return psiphon.NewCodec([]byte(secret), isClient)
		}},
		{"shadowsocks", func(secret string, isClient bool) pt.RecordCodec {
			return shadowsocks.NewCodec([]byte(secret), []byte("0123456789abcdef"), isClient)
		}},
	}
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			// records seals "first" and "second" under secret.
			records := func(secret string) (first, second []byte) {
				seal := c.end(secret, true)
				return seal.Seal(nil, []byte("first")), seal.Seal(nil, []byte("second"))
			}
			read := func(wire ...[]byte) (string, error) {
				var conn bytes.Buffer
				for _, r := range wire {
					conn.Write(r)
				}
				got, err := io.ReadAll(pt.NewCodecConn(streamtest.Plain(&conn), c.end("k", false)))
				return string(got), err
			}
			first, second := records("k")
			if got, err := read(first, second); got != "firstsecond" || err != nil {
				t.Fatalf("in order: read %q, %v", got, err)
			}
			other, _ := records("other")
			for _, tc := range []struct {
				name string
				wire [][]byte
				want string
			}{
				{"out of order", [][]byte{second, first}, ""},
				{"replayed", [][]byte{first, first}, "first"},
				{"another key", [][]byte{other}, ""},
			} {
				if got, err := read(tc.wire...); got != tc.want || err == nil {
					t.Errorf("%s: read %q, %v; want %q, then an error", tc.name, got, err, tc.want)
				}
			}
			for bit := range 8 * len(first) {
				corrupted := bytes.Clone(first)
				corrupted[bit/8] ^= 1 << (bit % 8)
				if got, err := read(corrupted); got != "" || err == nil {
					t.Fatalf("bit %d flipped: read %q, %v", bit, got, err)
				}
			}
		})
	}
}

func TestTargetPrologue(t *testing.T) {
	b, err := pt.Prologue("relay-3:9001")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readTarget(b)
	if err != nil || got != "relay-3:9001" {
		t.Fatalf("got %q err %v", got, err)
	}
	long := make([]byte, 300)
	if _, err := pt.Prologue(string(long)); err == nil {
		t.Fatal("overlong target must fail")
	}
}
