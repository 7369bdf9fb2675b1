package shadowsocks

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// sealAlloc is aeadCodec.Seal as it was while every chunk had a frame,
// two nonces and a length of its own: the reference the append form is
// held to.
func (c *aeadCodec) sealAlloc(payload []byte) []byte {
	nonce := func(n uint64) []byte {
		var b [12]byte
		binary.LittleEndian.PutUint64(b[:8], n)
		return b[:]
	}
	var lenPlain [2]byte
	binary.BigEndian.PutUint16(lenPlain[:], uint16(len(payload)))
	out := make([]byte, 0, 2+tagLen+len(payload)+tagLen)
	out = c.send.Seal(out, nonce(c.sendNonce), lenPlain[:], nil)
	out = c.send.Seal(out, nonce(c.sendNonce+1), payload, nil)
	c.sendNonce += 2
	return out
}

// TestSealMatchesAllocatingSeal: 1 000 chunks of drawn sizes sealed in a
// buffer full of 0xAA are byte for byte the frames the allocating Seal
// made, the nonce counters end equal, and the other end opens them.
func TestSealMatchesAllocatingSeal(t *testing.T) {
	psk, salt := []byte("psk"), []byte("0123456789abcdef")
	got, want := NewCodec(psk, salt, true).(*aeadCodec), NewCodec(psk, salt, true).(*aeadCodec)
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
