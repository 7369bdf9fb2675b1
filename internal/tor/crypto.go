package tor

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// HandshakeLen is the size of each half of the circuit handshake: an
// X25519 public key.
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

// deriveHop expands a shared secret into a hop's key material using an
// HKDF-style SHA-256 counter expansion.
func deriveHop(secret []byte) (*hopCrypto, error) {
	expand := func(n int) []byte {
		out := make([]byte, 0, n)
		var ctr byte
		for len(out) < n {
			h := sha256.New()
			h.Write(secret)
			h.Write([]byte{ctr})
			out = append(out, h.Sum(nil)...)
			ctr++
		}
		return out[:n]
	}
	km := expand(16 + 16 + 16 + 16 + 32 + 32)
	kf, ivf := km[0:16], km[16:32]
	kb, ivb := km[32:48], km[48:64]
	df, db := km[64:96], km[96:128]

	bf, err := aes.NewCipher(kf)
	if err != nil {
		return nil, err
	}
	bb, err := aes.NewCipher(kb)
	if err != nil {
		return nil, err
	}
	return &hopCrypto{
		fwd:   cipher.NewCTR(bf, ivf),
		bwd:   cipher.NewCTR(bb, ivb),
		fwdK0: binary.LittleEndian.Uint64(df[0:8]),
		fwdK1: binary.LittleEndian.Uint64(df[8:16]),
		bwdK0: binary.LittleEndian.Uint64(db[0:8]),
		bwdK1: binary.LittleEndian.Uint64(db[8:16]),
	}, nil
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

// handshake is the X25519 exchange used by CREATE/CREATED and
// EXTEND/EXTENDED. The simulation authenticates neither side (see package
// comment); the exchange costs the same round trips as ntor.
type handshake struct {
	priv *ecdh.PrivateKey
}

// newHandshake generates the initiator or responder keypair from a
// deterministic stream seeded by the caller.
func newHandshake(rng *rand.Rand) (*handshake, error) {
	seed := make([]byte, 32)
	randFill(rng, seed)
	priv, err := ecdh.X25519().NewPrivateKey(clampX25519(seed))
	if err != nil {
		return nil, fmt.Errorf("tor: handshake keygen: %w", err)
	}
	return &handshake{priv: priv}, nil
}

// clampX25519 applies the RFC 7748 scalar clamping so arbitrary seeds are
// valid private keys.
func clampX25519(seed []byte) []byte {
	s := append([]byte(nil), seed...)
	s[0] &= 248
	s[31] &= 127
	s[31] |= 64
	return s
}

// public returns the 32-byte public key for the wire.
func (hs *handshake) public() []byte { return hs.priv.PublicKey().Bytes() }

// complete derives the hop keys from the peer's public key.
func (hs *handshake) complete(peerPub []byte) (*hopCrypto, error) {
	if len(peerPub) != HandshakeLen {
		return nil, errors.New("tor: bad handshake length")
	}
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("tor: bad peer key: %w", err)
	}
	secret, err := hs.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("tor: ecdh: %w", err)
	}
	return deriveHop(secret)
}

// readHandshake extracts the handshake public key from a cell payload.
func readHandshake(p *[PayloadSize]byte) []byte {
	return append([]byte(nil), p[:HandshakeLen]...)
}

// writeHandshake places a handshake public key into a cell payload.
func writeHandshake(p *[PayloadSize]byte, pub []byte) {
	copy(p[:HandshakeLen], pub)
}

// randFill fills b from the rng, one draw per byte.
func randFill(rng *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
}
