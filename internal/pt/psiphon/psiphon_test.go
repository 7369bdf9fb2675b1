package psiphon

import (
	"bytes"
	"testing"
	"testing/quick"

	"ptperf/internal/pt"
)

// macOf is the client's MAC of packet seq under secret, from a fresh
// tag.
func macOf(secret []byte, seq uint64, payload []byte) []byte {
	tag := pt.NewTag("c2s", secret)
	mac := make([]byte, macLen)
	tag.Put(mac, seq, payload)
	return mac
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

// opens reports whether open accepts the first packet seal makes.
func opens(seal, open pt.RecordCodec) bool {
	pkt := seal.Seal(nil, []byte("payload"))
	_, err := open.Open(pkt[:4], pkt[4:])
	return err == nil
}

func TestDirectionKeysMirror(t *testing.T) {
	secret := []byte("shared")
	end := func(isClient bool) pt.RecordCodec { return NewCodec(secret, isClient) }
	if !opens(end(true), end(false)) || !opens(end(false), end(true)) {
		t.Fatal("client send must equal server recv and vice versa")
	}
	if opens(end(true), end(true)) || opens(end(false), end(false)) {
		t.Fatal("directions must use distinct keys")
	}
}

func TestDirectionKeysVaryWithSecret(t *testing.T) {
	f := func(a, b []byte) bool {
		return bytes.Equal(a, b) || !opens(NewCodec(a, true), NewCodec(b, false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
