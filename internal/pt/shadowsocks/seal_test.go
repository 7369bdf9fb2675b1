package shadowsocks

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// sealAlloc is chunkCodec.Seal as it was while every chunk had a frame
// of its own: the reference the append form is held to.
func (c *chunkCodec) sealAlloc(payload []byte) []byte {
	n := len(payload)
	out := make([]byte, 2+tagLen+n+tagLen)
	binary.BigEndian.PutUint16(out, uint16(n))
	c.send.Put(out[2:2+tagLen], c.sendNonce, out[:2])
	copy(out[2+tagLen:], payload)
	c.send.Put(out[2+tagLen+n:], c.sendNonce+1, payload)
	c.sendNonce += 2
	return out
}

// TestSealMatchesAllocatingSeal: 1 000 chunks of drawn sizes sealed in a
// buffer full of 0xAA are byte for byte the frames the allocating Seal
// made, the nonce counters end equal, and the other end opens them.
func TestSealMatchesAllocatingSeal(t *testing.T) {
	psk, salt := []byte("psk"), []byte("0123456789abcdef")
	got, want := NewCodec(psk, salt, true).(*chunkCodec), NewCodec(psk, salt, true).(*chunkCodec)
	open := NewCodec(psk, salt, false)
	sizes := sim.NewRand(9)
	dst := bytes.Repeat([]byte{0xAA}, 2*maxChunk)
	payload := make([]byte, maxChunk)
	for i := 0; i < 1000; i++ {
		p := payload[:sizes.Intn(maxChunk+1)]
		pt.RandFill(sizes, p)
		frame := got.Seal(dst[:0], p)
		if !bytes.Equal(frame, want.sealAlloc(p)) {
			t.Fatalf("chunk %d of %d bytes: the frames differ", i, len(p))
		}
		n, err := open.BodyLen(frame[:2+tagLen])
		if err != nil || n != len(p)+tagLen {
			t.Fatalf("chunk %d: BodyLen %d, %v", i, n, err)
		}
		if plain, err := open.Open(nil, frame[2+tagLen:]); err != nil || !bytes.Equal(plain, p) {
			t.Fatalf("chunk %d does not open: %v", i, err)
		}
	}
	if got.sendNonce != want.sendNonce {
		t.Fatalf("nonce counters %d and %d", got.sendNonce, want.sendNonce)
	}
}
