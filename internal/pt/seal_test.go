package pt

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ptperf/internal/sim"
)

// sealAlloc is ctrCodec.Seal as it was while every record had a frame of
// its own: the reference the append form is held to.
func (c *ctrCodec) sealAlloc(payload []byte) []byte {
	n, pad := len(payload), 0
	if c.maxPad > 0 {
		pad = c.rng.Intn(c.maxPad + 1)
	}
	frame := make([]byte, len(c.header)+4+n+pad)
	copy(frame, c.header)
	binary.BigEndian.PutUint16(frame[len(c.header):], uint16(n))
	binary.BigEndian.PutUint16(frame[len(c.header)+2:], uint16(pad))
	body := frame[len(c.header)+4:]
	copy(body, payload)
	RandFill(c.rng, body[n:])
	if c.enc != nil {
		c.enc.XORKeyStream(body, body)
	}
	return frame
}

// TestSealMatchesAllocatingSeal: 1 000 records of drawn sizes sealed
// behind a prefix in a buffer full of 0xAA are byte for byte the frames
// the allocating Seal made, and both generators end in the same state.
func TestSealMatchesAllocatingSeal(t *testing.T) {
	for _, cfg := range []RecordConfig{
		{Key: []byte("k"), Header: []byte{0x17, 0x03, 0x03}, MaxPadding: 255, Seed: 4, IsClient: true},
		{MaxPadding: 8, Seed: 5},
		{Key: []byte("k"), Seed: 6},
	} {
		got, want := NewRecordCodec(cfg).(*ctrCodec), NewRecordCodec(cfg).(*ctrCodec)
		sizes := sim.NewRand(9)
		dst := bytes.Repeat([]byte{0xAA}, 2*MaxRecord)
		payload := make([]byte, MaxRecord)
		for i := 0; i < 1000; i++ {
			p := payload[:sizes.Intn(MaxRecord+1)]
			RandFill(sizes, p)
			prefix := bytes.Repeat([]byte{byte(i)}, i%3)
			frame := got.Seal(append(dst[:0], prefix...), p)
			if !bytes.HasPrefix(frame, prefix) || !bytes.Equal(frame[len(prefix):], want.sealAlloc(p)) {
				t.Fatalf("record %d of %d bytes: the frames differ", i, len(p))
			}
		}
		if got.rng.Uint64() != want.rng.Uint64() {
			t.Fatal("the two codecs drew differently")
		}
	}
}
