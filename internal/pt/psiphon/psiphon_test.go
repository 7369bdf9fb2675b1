package psiphon

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

// macOf is the MAC of packet seq under key, from a fresh keyed hash.
func macOf(key []byte, seq uint64, payload []byte) []byte {
	m := packetMAC{h: hmac.New(sha256.New, key), seq: seq}
	return m.next(payload)
}

func TestPacketMACDeterministic(t *testing.T) {
	key := []byte("k")
	a := macOf(key, 1, []byte("payload"))
	b := macOf(key, 1, []byte("payload"))
	if !bytes.Equal(a, b) {
		t.Fatal("MAC must be deterministic")
	}
	if bytes.Equal(a, macOf(key, 2, []byte("payload"))) {
		t.Fatal("MAC must bind the sequence number")
	}
	if bytes.Equal(a, macOf([]byte("other"), 1, []byte("payload"))) {
		t.Fatal("MAC must bind the key")
	}
	if len(a) != macLen {
		t.Fatalf("MAC length %d", len(a))
	}
}

func TestDirectionKeysMirror(t *testing.T) {
	secret := []byte("shared")
	cs, cr := directionKeys(secret, true)
	ss, sr := directionKeys(secret, false)
	if !bytes.Equal(cs, sr) || !bytes.Equal(cr, ss) {
		t.Fatal("client send must equal server recv and vice versa")
	}
	if bytes.Equal(cs, cr) {
		t.Fatal("directions must use distinct keys")
	}
}

func TestDirectionKeysVaryWithSecret(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		sa, _ := directionKeys(a, true)
		sb, _ := directionKeys(b, true)
		return !bytes.Equal(sa, sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
