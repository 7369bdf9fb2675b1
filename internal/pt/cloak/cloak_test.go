package cloak

import (
	"math/rand"
	"testing"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
)

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
	cfg := Config{UID: []byte("uid"), RedirAddr: "bing.com"}
	rng := rand.New(rand.NewSource(1))
	hello := buildClientHello(cfg, rng)
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
	rng := rand.New(rand.NewSource(2))
	hello := buildClientHello(Config{UID: uid, RedirAddr: "x.com"}, rng)

	n1, a, b := bufferedPair(t)
	defer a.Close()
	defer b.Close()
	n1.Go(func() { a.Write(hello) })
	if _, err := serverWrap(b, Config{UID: uid}, 3); err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}

	n2, c, d := bufferedPair(t)
	defer c.Close()
	defer d.Close()
	n2.Go(func() { c.Write(hello) })
	if _, err := serverWrap(d, Config{UID: []byte("other")}, 4); err != ErrAuth {
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
		sc, err := serverWrap(b, Config{UID: []byte("u")}, 5)
		if err != nil {
			serverGot.Send(nil)
			return
		}
		buf := make([]byte, 10)
		n, _ := sc.Read(buf)
		serverGot.Send(buf[:n])
	})

	cc, err := clientWrap(a, Config{UID: []byte("u")}, 6)
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
