package webtunnel

import (
	"bytes"
	"net"
	"testing"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
)

func bufferedPair(t *testing.T) (*netem.Network, net.Conn, net.Conn) {
	t.Helper()
	n := netem.New(netem.WithSeed(11))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(netem.HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.London})
	ln, err := b.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	accepted := netem.NewChan[net.Conn](n.Clock(), 1)
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
	cfg := Config{SessionKey: []byte("k"), SNI: "static.example", Seed: 1}
	n, a, b := bufferedPair(t)
	type res struct {
		conn net.Conn
		err  error
	}
	sc := netem.NewChan[res](n.Clock(), 1)
	n.Go(func() {
		c, err := serverWrap(b, cfg, 2)
		sc.Send(res{c, err})
	})
	cc, err := clientWrap(a, cfg, 3)
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

func TestServerRejectsNonTunnelRequest(t *testing.T) {
	cfg := Config{SessionKey: []byte("k"), SNI: "x", Seed: 4}
	n, a, b := bufferedPair(t)
	errc := netem.NewChan[error](n.Clock(), 1)
	n.Go(func() {
		_, err := serverWrap(b, cfg, 5)
		errc.Send(err)
	})
	// Speak the TLS-ish prologue but then request the wrong path, like
	// an ordinary HTTPS client hitting the innocuous site.
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
	a.Write([]byte("GET /index.html HTTP/1.1\r\n\r\n"))
	if err, _ := errc.Recv(); err != ErrHandshake {
		t.Fatalf("want ErrHandshake, got %v", err)
	}
}

func readFull(t *testing.T, c net.Conn, buf []byte) {
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
