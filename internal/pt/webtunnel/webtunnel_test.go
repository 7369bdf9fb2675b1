package webtunnel

import (
	"bytes"
	"errors"
	"testing"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// runHandshake plays h over conn, a conn of n, with seed, awaiting it
// parked.
func runHandshake(n *netem.Network, h pt.Handshake, conn netem.Stream, seed int64) (netem.Stream, error) {
	return netem.Await(n.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return h.RunEvent(conn, seed, done)
	})
}

func bufferedPair(t *testing.T) (*netem.Network, netem.Stream, netem.Stream) {
	t.Helper()
	n := netem.New(netem.WithSeed(11))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(netem.HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.London})
	ln, err := b.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	accepted := netem.NewChan[netem.Stream](n.Clock(), 1)
	n.Go(func() {
		c, err := ln.Accept()
		if err == nil {
			accepted.Send(c)
		}
	})
	c, err := a.Dial("b:1")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := accepted.Recv()
	return n, c, sc
}

func TestHandshakeAndRecords(t *testing.T) {
	cfg := Config{SNI: "static.example", Seed: 1}
	n, a, b := bufferedPair(t)
	type res struct {
		conn netem.Stream
		err  error
	}
	sc := netem.NewChan[res](n.Clock(), 1)
	n.Go(func() {
		c, err := runHandshake(n, Transport(cfg).Server, b, 2)
		sc.Send(res{c, err})
	})
	cc, err := runHandshake(n, Transport(cfg).Client, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := sc.Recv()
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	msg := bytes.Repeat([]byte("https-tunnel"), 2000)
	n.Go(func() { cc.Write(msg) })
	got := make([]byte, len(msg))
	readFull(t, srv.conn, got)
	if !bytes.Equal(got, msg) {
		t.Fatal("tunnel corrupted payload")
	}
}

// TestServerRejectsNonTunnelRequest: after the TLS-ish prologue the
// server refuses a request for another path, like an ordinary HTTPS
// client hitting the innocuous site, and a request with no terminator
// in its first 4096 bytes, at byte 4097.
func TestServerRejectsNonTunnelRequest(t *testing.T) {
	for _, tc := range []struct {
		req  []byte
		want error
	}{
		{[]byte("GET /index.html HTTP/1.1\r\n\r\n"), ErrHandshake},
		{append([]byte("GET /tunnel "), bytes.Repeat([]byte("a"), 8192)...), pt.ErrFlightTooLong},
	} {
		cfg := Config{SNI: "x", Seed: 4}
		n, a, b := bufferedPair(t)
		errc := netem.NewChan[error](n.Clock(), 1)
		n.Go(func() {
			_, err := runHandshake(n, Transport(cfg).Server, b, 5)
			errc.Send(err)
		})
		a.Write(append([]byte{0x16, 0x03, 0x01}, make([]byte, 32+1)...))
		// Consume the ServerHello so the server can progress.
		n.Go(func() {
			buf := make([]byte, 4096)
			for {
				if _, err := a.Read(buf); err != nil {
					return
				}
			}
		})
		a.Write(tc.req)
		if err, _ := errc.Recv(); !errors.Is(err, tc.want) {
			t.Fatalf("%d B request: want %v, got %v", len(tc.req), tc.want, err)
		}
	}
}

func readFull(t *testing.T, c netem.Stream, buf []byte) {
	t.Helper()
	total := 0
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		total += n
	}
}
