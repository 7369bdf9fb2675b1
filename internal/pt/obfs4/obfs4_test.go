package obfs4

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestHandshakeMessageRoundTrip(t *testing.T) {
	secret := []byte("bridge-secret")
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	if err := writeHandshake(&buf, secret, 'c', rng); err != nil {
		t.Fatal(err)
	}
	if err := readHandshake(&buf, secret, 'c'); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes of the handshake left unread", buf.Len())
	}
}

func TestHandshakeRoleConfusionRejected(t *testing.T) {
	secret := []byte("s")
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	if err := writeHandshake(&buf, secret, 'c', rng); err != nil {
		t.Fatal(err)
	}
	// Reading a client message as a server message must fail: the MAC
	// binds the role, preventing reflection attacks.
	if err := readHandshake(&buf, secret, 's'); err != ErrAuth {
		t.Fatalf("want ErrAuth, got %v", err)
	}
}

func TestHandshakeWrongSecretRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	if err := writeHandshake(&buf, []byte("right"), 'c', rng); err != nil {
		t.Fatal(err)
	}
	if err := readHandshake(&buf, []byte("wrong"), 'c'); err != ErrAuth {
		t.Fatalf("want ErrAuth, got %v", err)
	}
}

func TestHandshakePaddingVaries(t *testing.T) {
	secret := []byte("s")
	rng := rand.New(rand.NewSource(4))
	sizes := map[int]bool{}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := writeHandshake(&buf, secret, 'c', rng); err != nil {
			t.Fatal(err)
		}
		sizes[buf.Len()] = true
	}
	if len(sizes) < 5 {
		t.Fatalf("handshake length should be randomized, got %d distinct sizes", len(sizes))
	}
}
