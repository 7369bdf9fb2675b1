package tor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"

	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// HandshakeLen is the size of each half of the circuit handshake, that
// of the X25519 public key ntor sends.
const HandshakeLen = 32

// hopCrypto is one hop's share of the onion layer. There is no cipher:
// what a layer is kept for is what it rejects (DESIGN.md "What the
// simulated crypto is for"), and that needs only, per direction, a tag
// naming the hop a relay cell is addressed to, a keyed pt.Tag for the
// cell's checksum, and a count of the cells checked so far.
//
// A cell's 2-byte recognized field carries the tag in plain text, so a
// hop the cell is not for forwards it after one compare. Its 4-byte
// digest is the pt.Tag sum of counter || payload with the digest field
// zeroed, so a cell sealed under another key at the same count, a count
// off by less than 2^32 (a replayed, reordered or dropped cell), and a
// burst of up to 32 flipped bits are each refused every time.
//
// Concurrency: each direction of one instance is driven by exactly one
// goroutine or inline event stream — forward by whoever originates/
// checks forward cells (the client under sendMu, a relay's link pump),
// backward by the symmetric single reader/sealer — and a digest does
// not park, which is what makes the Tag's counter scratch safe.
type hopCrypto struct {
	fwd, bwd hopDir
}

// hopDir is one direction of a hop.
type hopDir struct {
	tag uint16
	sum pt.Tag
	ctr uint64
}

// deriveHop expands a secret into a hop's tags and keys: the secret's
// eight 64-bit words through sim.DeriveSeed, then one derived seed per
// direction.
func deriveHop(secret *[2 * HandshakeLen]byte) *hopCrypto {
	var w [len(secret) / 8]int64
	for i := range w {
		w[i] = int64(binary.LittleEndian.Uint64(secret[8*i:]))
	}
	root := sim.DeriveSeed(w[0], w[1:]...)
	f, b := uint64(sim.DeriveSeed(root, 0)), uint64(sim.DeriveSeed(root, 1))
	return &hopCrypto{
		fwd: hopDir{tag: uint16(f >> 32), sum: pt.KeyTag(uint32(f))},
		bwd: hopDir{tag: uint16(b >> 32), sum: pt.KeyTag(uint32(b))},
	}
}

// seal stamps d's tag and digest on a marshalled relay payload and
// advances the counter. The payload goes to the sum whole: at 507 bytes
// CRC-32C takes the three-way path, which needs 504, and so costs half
// as much as two calls around the digest field.
func (d *hopDir) seal(p []byte) {
	binary.BigEndian.PutUint16(p[1:3], d.tag)
	binary.BigEndian.PutUint32(p[5:9], 0)
	binary.BigEndian.PutUint32(p[5:9], d.sum.Sum(d.ctr, p))
	d.ctr++
}

// check reports whether p is d's next cell, advancing the counter only
// if it is. A foreign tag is refused without a digest. p's digest field
// is zeroed while the digest is computed and then put back, so a
// refused cell is forwarded as it arrived.
func (d *hopDir) check(p []byte) bool {
	if binary.BigEndian.Uint16(p[1:3]) != d.tag {
		return false
	}
	got := binary.BigEndian.Uint32(p[5:9])
	binary.BigEndian.PutUint32(p[5:9], 0)
	want := d.sum.Sum(d.ctr, p)
	binary.BigEndian.PutUint32(p[5:9], got)
	if got != want {
		return false
	}
	d.ctr++
	return true
}

// sealForward marks a relay payload for this hop. Called by the party
// that *originates* cells toward this hop (the client). p is the
// PayloadSize-byte payload.
func (h *hopCrypto) sealForward(p []byte) { h.fwd.seal(p) }

// checkForward recognizes an arrived forward cell at the hop.
func (h *hopCrypto) checkForward(p []byte) bool { return h.fwd.check(p) }

// sealBackward marks a payload originated by this hop toward the client.
func (h *hopCrypto) sealBackward(p []byte) { h.bwd.seal(p) }

// checkBackward recognizes, at the client, a backward cell from the hop.
func (h *hopCrypto) checkBackward(p []byte) bool { return h.bwd.check(p) }

// handshake is one side's half of the exchange carried by CREATE/CREATED
// and EXTEND/EXTENDED, sent as it is. It is no key agreement (whoever
// reads both halves derives the hop keys; the package comment says why
// that is sound here), but it costs ntor's wire bytes and round trips
// and gives every hop of every circuit its own tags and keys.
type handshake [HandshakeLen]byte

// newHandshake draws a half, one Intn(256) per byte: Client.rng and
// Relay.rng also pick circuit IDs and paths, so the draw count is part
// of every report.
func newHandshake(rng *rand.Rand) handshake {
	var hs handshake
	for i := range hs {
		hs[i] = byte(rng.Intn(256))
	}
	return hs
}

// complete derives the hop keys from both halves, smaller first, so the
// two sides expand the same bytes whoever initiated.
func (hs *handshake) complete(peer []byte) (*hopCrypto, error) {
	if len(peer) != HandshakeLen {
		return nil, errors.New("tor: bad handshake length")
	}
	lo, hi := hs[:], peer
	if bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	var secret [2 * HandshakeLen]byte
	copy(secret[:HandshakeLen], lo)
	copy(secret[HandshakeLen:], hi)
	return deriveHop(&secret), nil
}
