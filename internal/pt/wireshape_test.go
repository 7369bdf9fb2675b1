package pt_test

import (
	"io"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/cloak"
	"ptperf/internal/pt/conjure"
	"ptperf/internal/pt/obfs4"
	"ptperf/internal/pt/psiphon"
	"ptperf/internal/pt/shadowsocks"
	"ptperf/internal/pt/stegotorus"
	"ptperf/internal/pt/webtunnel"
)

// wireShape is what one phase of a session put on the network: bytes
// and segments sent, every hop counted.
type wireShape struct{ Bytes, Segments int64 }

// TestWireShapePinned holds the wire size of the six wrapping
// transports: the handshake with the target prologue, then 100 KB up,
// then 100 KB down, over one netem world at a fixed seed. Sizes and
// segment counts set virtual time, so a framing change that drifts by
// one byte fails here in milliseconds instead of in a report digest.
// The constants were recorded at the commit before the six transports
// moved onto one record conn, and obfs4's and webtunnel's padded byte
// totals again when every draw moved to sim.NewRand (segment counts
// and every unpadded row stayed); per-record overhead is 4+header+padding
// (obfs4, webtunnel, cloak, conjure), 20 (psiphon) and 34
// (shadowsocks) bytes. conjure counts twice what it frames: the station
// forwards every byte to the bridge, the nonce and prologue only once
// the dial has returned. cloak's upload carries the 125-byte
// ServerHello the client did not wait for. stegotorus, which chops
// rather than wraps, is pinned too: its handshake is the four fan-out
// preambles and the target's cover, and a block of n bytes costs a
// cover's headers and a body of 4⌈n/3⌉ bytes.
func TestWireShapePinned(t *testing.T) {
	const payload = 100_000
	key := []byte("wire-shape-key")
	cases := []struct {
		name                string
		start               func(w *world, handle pt.StreamHandler) (pt.Dialer, error)
		handshake, up, down wireShape
	}{
		{"obfs4", func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
			srv, err := obfs4.StartServer(w.server, 443, obfs4.Config{Secret: key, Seed: 1}, h)
			if err != nil {
				return nil, err
			}
			return obfs4.NewDialer(w.client, srv.Addr(), obfs4.Config{Secret: key, Seed: 2}), nil
		}, wireShape{1254, 3}, wireShape{100325, 13}, wireShape{100177, 13}},
		{"webtunnel", func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
			cfg := webtunnel.Config{SNI: "cdn.example", Seed: 1}
			srv, err := webtunnel.StartServer(w.server, 443, cfg, h)
			if err != nil {
				return nil, err
			}
			cfg.Seed = 2
			return webtunnel.NewDialer(w.client, srv.Addr(), cfg), nil
		}, wireShape{1404, 5}, wireShape{100049, 13}, wireShape{100049, 13}},
		{"cloak", func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
			cfg := cloak.Config{UID: key, Seed: 1}
			srv, err := cloak.StartServer(w.server, 443, cfg, h)
			if err != nil {
				return nil, err
			}
			cfg.Seed = 2
			return cloak.NewDialer(w.client, srv.Addr(), cfg), nil
		}, wireShape{537, 2}, wireShape{100174, 14}, wireShape{100049, 13}},
		{"conjure", func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
			bridge, err := conjure.StartBridge(w.server, 4443, conjure.Config{Secret: key, Seed: 1}, h)
			if err != nil {
				return nil, err
			}
			inf, err := conjure.StartInfra(w.extra, w.extra2, 53000, 443, conjure.Config{Secret: key, Seed: 2}, bridge.Addr())
			if err != nil {
				return nil, err
			}
			return conjure.NewDialer(w.client, inf.RegistrarAddr(), inf.PhantomAddr(), conjure.Config{Secret: key, Seed: 3}), nil
		}, wireShape{101, 4}, wireShape{200150, 21}, wireShape{200098, 23}},
		{"shadowsocks", func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
			srv, err := shadowsocks.StartServer(w.server, 8388, shadowsocks.Config{PSK: key, Seed: 1}, h)
			if err != nil {
				return nil, err
			}
			return shadowsocks.NewDialer(w.client, srv.Addr(), shadowsocks.Config{PSK: key, Seed: 2}), nil
		}, wireShape{63, 2}, wireShape{100238, 13}, wireShape{100238, 13}},
		{"psiphon", func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
			srv, err := psiphon.StartServer(w.server, 22, psiphon.Config{HostKey: key, Seed: 1}, h)
			if err != nil {
				return nil, err
			}
			return psiphon.NewDialer(w.client, srv.Addr(), psiphon.Config{HostKey: key, Seed: 2}), nil
		}, wireShape{239, 5}, wireShape{100080, 10}, wireShape{100080, 10}},
		{"stegotorus", func(w *world, h pt.StreamHandler) (pt.Dialer, error) {
			srv, err := stegotorus.StartServer(w.server, 8080, stegotorus.Config{Seed: 1}, h)
			if err != nil {
				return nil, err
			}
			return stegotorus.NewDialer(w.client, srv.Addr(), stegotorus.Config{Seed: 2}), nil
		}, wireShape{182, 5}, wireShape{144193, 85}, wireShape{145843, 98}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			// The server reports the upload complete and answers when
			// told to, so each phase's bytes have left every hop
			// before the next begins.
			clock := w.net.Clock()
			uploaded, reply, served := netem.NewChan[error](clock, 1), netem.NewChan[bool](clock, 1), netem.NewChan[error](clock, 1)
			d, err := tc.start(w, spawned(w, func(_ string, conn netem.Stream) {
				defer conn.Close()
				buf := make([]byte, payload)
				_, err := io.ReadFull(conn, buf)
				uploaded.Send(err)
				reply.Recv()
				_, err = conn.Write(buf)
				served.Send(err)
			}))
			if err != nil {
				t.Fatal(err)
			}
			var last netem.AcctSnapshot
			phase := func() wireShape {
				now := w.net.Acct().Snapshot()
				s := wireShape{now.BytesSent - last.BytesSent, now.SegmentsSent - last.SegmentsSent}
				last = now
				return s
			}
			conn, err := dial(w.net, d, "guard-0:9001")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			handshake := phase()
			buf := make([]byte, payload)
			if _, err := conn.Write(buf); err != nil {
				t.Fatal(err)
			}
			if err, _ := uploaded.Recv(); err != nil {
				t.Fatal(err)
			}
			up := phase()
			reply.Send(true)
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Fatal(err)
			}
			if err, _ := served.Recv(); err != nil {
				t.Fatal(err)
			}
			down := phase()
			if handshake != tc.handshake || up != tc.up || down != tc.down {
				t.Errorf("wire shape moved:\n got handshake %v up %v down %v\nwant handshake %v up %v down %v",
					handshake, up, down, tc.handshake, tc.up, tc.down)
			}
		})
	}
}
