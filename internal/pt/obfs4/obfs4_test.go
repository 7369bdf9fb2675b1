package obfs4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// bufConn is a netem.Stream over one buffer: a handshake's flights are
// written into it and read back out of it.
type bufConn struct {
	netem.Stream
	buf *bytes.Buffer
}

func (c bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// ReadEvent, ReadFullEvent and WriteEvent never wait: each is the plain
// call.
func (c bufConn) ReadEvent(p []byte, _ func()) (int, error, bool) {
	n, err := c.buf.Read(p)
	return n, err, true
}

func (c bufConn) ReadFullEvent(p []byte, _ func()) (int, error, bool) {
	n, err := io.ReadFull(c.buf, p)
	return n, err, true
}

func (c bufConn) WriteEvent(p []byte, _ func()) (int, error, bool) {
	n, err := c.buf.Write(p)
	return n, err, true
}

// play runs steps over c with seed.
func play(c netem.Stream, seed int64, steps ...pt.Step) error {
	_, err := netem.Await(netem.NewClock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return pt.Handshake{Steps: steps}.RunEvent(c, seed, done)
	})
	return err
}

func TestHandshakeMessageRoundTrip(t *testing.T) {
	secret := []byte("bridge-secret")
	var buf bytes.Buffer
	c := bufConn{buf: &buf}
	if err := play(c, 1, hello(secret, 'c')); err != nil {
		t.Fatal(err)
	}
	if err := play(c, 0, peerHello(secret, 'c')); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes of the handshake left unread", buf.Len())
	}
}

func TestHandshakeRoleConfusionRejected(t *testing.T) {
	secret := []byte("s")
	c := bufConn{buf: new(bytes.Buffer)}
	if err := play(c, 2, hello(secret, 'c')); err != nil {
		t.Fatal(err)
	}
	// Reading a client message as a server message must fail: the MAC
	// binds the role, preventing reflection attacks.
	if err := play(c, 0, peerHello(secret, 's')); err != ErrAuth {
		t.Fatalf("want ErrAuth, got %v", err)
	}
}

func TestHandshakeWrongSecretRejected(t *testing.T) {
	c := bufConn{buf: new(bytes.Buffer)}
	if err := play(c, 3, hello([]byte("right"), 'c')); err != nil {
		t.Fatal(err)
	}
	if err := play(c, 0, peerHello([]byte("wrong"), 'c')); err != ErrAuth {
		t.Fatalf("want ErrAuth, got %v", err)
	}
}

// TestHandshakeImplausiblePaddingRejected: a flight whose MAC checks but
// whose padding length is past obfs4's bound is refused before any of
// the padding is read.
func TestHandshakeImplausiblePaddingRejected(t *testing.T) {
	secret := []byte("s")
	var buf bytes.Buffer
	if err := play(bufConn{buf: &buf}, 5, hello(secret, 'c')); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()[:nonceLen+macLen+2]
	binary.BigEndian.PutUint16(head[nonceLen+macLen:], maxHandshakePad+1)
	c := bufConn{buf: bytes.NewBuffer(append(head, make([]byte, maxHandshakePad+1)...))}
	err := play(c, 0, peerHello(secret, 'c'))
	if err == nil || errors.Is(err, ErrAuth) {
		t.Fatalf("want the padding refused, got %v", err)
	}
	if c.buf.Len() != maxHandshakePad+1 {
		t.Fatalf("%d bytes of padding read before the refusal", maxHandshakePad+1-c.buf.Len())
	}
}

func TestHandshakePaddingVaries(t *testing.T) {
	secret := []byte("s")
	sizes := map[int]bool{}
	for i := int64(0); i < 20; i++ {
		var buf bytes.Buffer
		if err := play(bufConn{buf: &buf}, 4+i, hello(secret, 'c')); err != nil {
			t.Fatal(err)
		}
		sizes[buf.Len()] = true
	}
	if len(sizes) < 5 {
		t.Fatalf("handshake length should be randomized, got %d distinct sizes", len(sizes))
	}
}
