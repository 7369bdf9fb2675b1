package psiphon

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// sealAlloc is packetCodec.Seal as it was while every packet had a frame
// and a keyed hash of its own: the reference the append form is held to.
func sealAlloc(key []byte, seq uint64, payload []byte) []byte {
	n := len(payload)
	pkt := make([]byte, 4+n+macLen)
	binary.BigEndian.PutUint32(pkt, uint32(n))
	copy(pkt[4:], payload)
	copy(pkt[4+n:], macOf(key, seq, payload))
	return pkt
}

// TestSealMatchesAllocatingSeal: 1 000 packets of drawn sizes sealed in
// a buffer full of 0xAA are byte for byte the frames the allocating Seal
// made under a hash keyed per packet, and the other end opens them.
func TestSealMatchesAllocatingSeal(t *testing.T) {
	secret := []byte("secret")
	got, open := NewCodec(secret, true).(*packetCodec), NewCodec(secret, false)
	key, _ := directionKeys(secret, true)
	sizes := sim.NewRand(9)
	dst := bytes.Repeat([]byte{0xAA}, 2*maxPacket)
	payload := make([]byte, maxPacket)
	for i := 0; i < 1000; i++ {
		p := payload[:sizes.Intn(maxPacket+1)]
		pt.RandFill(sizes, p)
		frame := got.Seal(dst[:0], p)
		if !bytes.Equal(frame, sealAlloc(key, uint64(i), p)) {
			t.Fatalf("packet %d of %d bytes: the frames differ", i, len(p))
		}
		if plain, err := open.Open(nil, frame[4:]); err != nil || !bytes.Equal(plain, p) {
			t.Fatalf("packet %d does not open: %v", i, err)
		}
	}
	if got.send.seq != 1000 {
		t.Fatalf("sequence number %d after 1000 packets", got.send.seq)
	}
}
