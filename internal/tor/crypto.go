package tor

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
)

// HandshakeLen is the size of each half of the circuit handshake, that
// of the X25519 public key ntor sends.
const HandshakeLen = 32

// hopCrypto holds one hop's share of the onion encryption: AES-CTR
// streams in both directions plus per-direction digest keys and counters.
//
// Relay-cell digests use keyed SipHash-1-3 rather than an HMAC: the
// digest's simulation role is recognition and integrity (a corrupted or
// replayed cell must be rejected deterministically), not cryptographic
// strength, and the virtual-time results never depend on real CPU cost
// — while a per-cell HMAC-SHA256 was the largest single CPU sink of a
// contention sweep (~25%). The keys still come from the handshake's
// HKDF expansion, so digests differ per hop, per direction and per
// circuit exactly as before.
//
// Concurrency: each direction of one instance is driven by exactly one
// goroutine or inline event stream — forward by whoever originates/
// checks forward cells (the client under sendMu, a relay's serve loop),
// backward by the symmetric single reader/sealer. That is what makes
// the shared digest scratch buffer below safe to reuse per call.
type hopCrypto struct {
	fwd, bwd cipher.Stream
	// digest keys authenticate relay cells addressed to this hop.
	fwdK0, fwdK1   uint64
	bwdK0, bwdK1   uint64
	fwdCtr, bwdCtr uint64
	// dig assembles counter || payload-with-zero-digest for hashing.
	dig [digestMsgLen]byte
}

// deriveHop expands a secret into a hop's key material with an
// HKDF-style SHA-256 counter expansion: block i is SHA-256(secret || i).
func deriveHop(secret []byte) *hopCrypto {
	// On the stack for a handshake's secret; a longer one spills.
	var buf [2*HandshakeLen + 1]byte
	msg := append(buf[:0], secret...)
	msg = append(msg, 0)
	var km [16 + 16 + 16 + 16 + 32 + 32]byte
	for i := 0; i < len(km)/sha256.Size; i++ {
		msg[len(secret)] = byte(i)
		sum := sha256.Sum256(msg)
		copy(km[i*sha256.Size:], sum[:])
	}
	kf, ivf := km[0:16], km[16:32]
	kb, ivb := km[32:48], km[48:64]
	df, db := km[64:96], km[96:128]

	bf, errF := aes.NewCipher(kf)
	bb, errB := aes.NewCipher(kb)
	if errF != nil || errB != nil {
		panic("tor: AES refused a 16-byte key")
	}
	return &hopCrypto{
		fwd:   cipher.NewCTR(bf, ivf),
		bwd:   cipher.NewCTR(bb, ivb),
		fwdK0: binary.LittleEndian.Uint64(df[0:8]),
		fwdK1: binary.LittleEndian.Uint64(df[8:16]),
		bwdK0: binary.LittleEndian.Uint64(db[0:8]),
		bwdK1: binary.LittleEndian.Uint64(db[8:16]),
	}
}

// digestMsgLen is the length of the digested message: the 8-byte cell
// counter plus the payload with the 4-byte digest field zeroed.
const digestMsgLen = 8 + PayloadSize

// relayDigest computes the 4-byte digest for the n-th recognized relay
// cell in one direction: SipHash-1-3(key, counter || payload-with-zero-
// digest) truncated. The message is assembled in the hop's scratch
// buffer, so no allocation per cell.
func relayDigest(k0, k1 uint64, scratch *[digestMsgLen]byte, counter uint64, p []byte) [4]byte {
	binary.BigEndian.PutUint64(scratch[0:8], counter)
	copy(scratch[8:13], p[:5])
	scratch[13], scratch[14], scratch[15], scratch[16] = 0, 0, 0, 0
	copy(scratch[17:], p[9:])
	s := siphash13(k0, k1, scratch[:])
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], uint32(s))
	return out
}

// siphash13 is SipHash-1-3 (the reduced-round SipHash variant used by
// the Go runtime's and Rust hashbrown's keyed hashes), a keyed 64-bit
// hash. The SipRounds are written out straight-line: a round closure
// costs an indirect call per invocation (~70 per cell digest), which
// profiling showed tripled the hash's cost.
func siphash13(k0, k1 uint64, data []byte) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573
	n := len(data)
	for ; len(data) >= 8; data = data[8:] {
		m := binary.LittleEndian.Uint64(data)
		v3 ^= m
		// 1× SipRound (SipHash-1-3 compression)
		v0 += v1
		v1 = v1<<13 | v1>>51
		v1 ^= v0
		v0 = v0<<32 | v0>>32
		v2 += v3
		v3 = v3<<16 | v3>>48
		v3 ^= v2
		v0 += v3
		v3 = v3<<21 | v3>>43
		v3 ^= v0
		v2 += v1
		v1 = v1<<17 | v1>>47
		v1 ^= v2
		v2 = v2<<32 | v2>>32
		v0 ^= m
	}
	var last uint64
	for i := len(data) - 1; i >= 0; i-- {
		last = last<<8 | uint64(data[i])
	}
	last |= uint64(n&0xff) << 56
	v3 ^= last
	// 1× SipRound (SipHash-1-3 compression)
	v0 += v1
	v1 = v1<<13 | v1>>51
	v1 ^= v0
	v0 = v0<<32 | v0>>32
	v2 += v3
	v3 = v3<<16 | v3>>48
	v3 ^= v2
	v0 += v3
	v3 = v3<<21 | v3>>43
	v3 ^= v0
	v2 += v1
	v1 = v1<<17 | v1>>47
	v1 ^= v2
	v2 = v2<<32 | v2>>32
	v0 ^= last
	v2 ^= 0xff
	// 3× SipRound finalization
	for i := 0; i < 3; i++ {
		v0 += v1
		v1 = v1<<13 | v1>>51
		v1 ^= v0
		v0 = v0<<32 | v0>>32
		v2 += v3
		v3 = v3<<16 | v3>>48
		v3 ^= v2
		v0 += v3
		v3 = v3<<21 | v3>>43
		v3 ^= v0
		v2 += v1
		v1 = v1<<17 | v1>>47
		v1 ^= v2
		v2 = v2<<32 | v2>>32
	}
	return v0 ^ v1 ^ v2 ^ v3
}

// fwdDigest / bwdDigest compute the current-counter digest with the
// per-direction key.
func (h *hopCrypto) fwdDigest(p []byte) [4]byte {
	return relayDigest(h.fwdK0, h.fwdK1, &h.dig, h.fwdCtr, p)
}

func (h *hopCrypto) bwdDigest(p []byte) [4]byte {
	return relayDigest(h.bwdK0, h.bwdK1, &h.dig, h.bwdCtr, p)
}

// sealForward marks a plaintext relay payload with this hop's digest and
// advances the forward counter. Called by the party that *originates*
// cells toward this hop (the client). p is the PayloadSize-byte payload.
func (h *hopCrypto) sealForward(p []byte) {
	d := h.fwdDigest(p)
	copy(p[5:9], d[:])
	h.fwdCtr++
}

// checkForward verifies an arrived forward cell's digest at the hop.
func (h *hopCrypto) checkForward(p []byte) bool {
	want := h.fwdDigest(p)
	if want != [4]byte(p[5:9]) {
		return false
	}
	h.fwdCtr++
	return true
}

// sealBackward marks a payload originated by this hop toward the client.
func (h *hopCrypto) sealBackward(p []byte) {
	d := h.bwdDigest(p)
	copy(p[5:9], d[:])
	h.bwdCtr++
}

// checkBackward verifies a backward cell's digest at the client.
func (h *hopCrypto) checkBackward(p []byte) bool {
	want := h.bwdDigest(p)
	if want != [4]byte(p[5:9]) {
		return false
	}
	h.bwdCtr++
	return true
}

// encryptForward applies this hop's forward stream cipher in place.
func (h *hopCrypto) encryptForward(p []byte) { h.fwd.XORKeyStream(p, p) }

// decryptForward is identical for CTR mode; named for readability.
func (h *hopCrypto) decryptForward(p []byte) { h.fwd.XORKeyStream(p, p) }

// encryptBackward applies this hop's backward stream cipher in place.
func (h *hopCrypto) encryptBackward(p []byte) { h.bwd.XORKeyStream(p, p) }

// decryptBackward is identical for CTR mode; named for readability.
func (h *hopCrypto) decryptBackward(p []byte) { h.bwd.XORKeyStream(p, p) }

// handshake is one side's half of the exchange carried by CREATE/CREATED
// and EXTEND/EXTENDED, sent as it is. It is no key agreement (whoever
// reads both halves derives the hop keys; the package comment says why
// that is sound here), but it costs ntor's wire bytes and round trips
// and gives every hop of every circuit its own keys.
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
	return deriveHop(secret[:]), nil
}
