package cloak

import (
	"testing"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// runHandshake plays h over conn, a conn of n, with seed, awaiting it
// parked.
func runHandshake(n *netem.Network, h pt.Handshake, conn netem.Stream, seed int64) (netem.Stream, error) {
	return netem.Await(n.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return h.RunEvent(conn, seed, done)
	})
}

// clientHelloOf is the first flight a client with cfg sends on a conn
// of seed.

func clientHelloOf(cfg Config, seed int64) []byte {
	return Transport(cfg).Client.Steps[0].Send(&pt.Transcript{Seed: seed, Rand: sim.NewRand(seed)})
}

// bufferedPair returns two connected conns with buffering (unlike
// net.Pipe), so a server can flush its ServerHello without a reader.
func bufferedPair(t *testing.T) (*netem.Network, netem.Stream, netem.Stream) {
	t.Helper()
	n := netem.New(netem.WithSeed(9))
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

func TestClientHelloShape(t *testing.T) {
	cfg := Config{UID: []byte("uid")}
	hello := clientHelloOf(cfg, 1)
	if len(hello) != clientHelloLen {
		t.Fatalf("ClientHello must be %d bytes (browser-shaped), got %d", clientHelloLen, len(hello))
	}
	if hello[0] != 0x16 || hello[1] != 0x03 {
		t.Fatal("record header not TLS-handshake-shaped")
	}
}

func TestClientHelloAuthenticates(t *testing.T) {
	// The steganographic proof must validate for the right UID only.
	uid := []byte("the-uid")
	hello := clientHelloOf(Config{UID: uid}, 2)

	n1, a, b := bufferedPair(t)
	defer a.Close()
	defer b.Close()
	n1.Go(func() { a.Write(hello) })
	if _, err := runHandshake(n1, Transport(Config{UID: uid}).Server, b, 3); err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}

	n2, c, d := bufferedPair(t)
	defer c.Close()
	defer d.Close()
	n2.Go(func() { c.Write(hello) })
	if _, err := runHandshake(n2, Transport(Config{UID: []byte("other")}).Server, d, 4); err != ErrAuth {
		t.Fatalf("wrong UID must fail auth, got %v", err)
	}
}

func TestZeroRTT(t *testing.T) {
	// The client must be able to finish its first Write before reading
	// anything from the server: that is cloak's zero-RTT property.
	nw, a, b := bufferedPair(t)
	defer a.Close()
	defer b.Close()

	serverGot := netem.NewChan[[]byte](nw.Clock(), 1)
	nw.Go(func() {
		sc, err := runHandshake(nw, Transport(Config{UID: []byte("u")}).Server, b, 5)
		if err != nil {
			serverGot.Send(nil)
			return
		}
		buf := make([]byte, 10)
		n, _ := sc.Read(buf)
		serverGot.Send(buf[:n])
	})

	cc, err := runHandshake(nw, Transport(Config{UID: []byte("u")}).Client, a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Write([]byte("early-data")); err != nil {
		t.Fatal(err)
	}
	if got, _ := serverGot.Recv(); string(got) != "early-data" {
		t.Fatalf("server got %q", got)
	}
}
