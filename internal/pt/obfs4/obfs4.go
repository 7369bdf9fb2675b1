// Package obfs4 models the fully-encrypted transport of the paper, a
// scramblesuit descendant whose traffic is indistinguishable from a
// uniformly random byte stream. What is modelled is what sets its
// speed and what it refuses: a one-round-trip handshake with random
// padding, tagged with an out-of-band shared secret so that a prober
// without it gets no answer, then records of the real wire size with
// random length padding. The bytes are sent as they are; nothing is
// secret (DESIGN.md "What the simulated crypto is for").
//
// obfs4 is an integration-set-1 transport: its server feeds the
// co-located guard relay directly.
package obfs4

import (
	"encoding/binary"
	"errors"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

const (
	nonceLen = 32
	macLen   = 16
	// maxHandshakePad mirrors obfs4's randomized handshake length.
	maxHandshakePad = 1024
	// maxRecordPad is the per-record length obfuscation.
	maxRecordPad = 64
)

// ErrAuth reports a failed handshake MAC, i.e. an unauthorized client
// (obfs4's probing resistance).
var ErrAuth = errors.New("obfs4: handshake authentication failed")

// Config carries the transport parameters.
type Config struct {
	// Secret is the out-of-band shared secret from the bridge line.
	Secret []byte
	// Seed drives padding draws.
	Seed int64
}

// hello is one side's handshake flight: nonce ‖ MAC ‖ padLen ‖
// padding, the MAC the secret's tag of the nonce with the role as its
// counter.
func hello(secret []byte, role byte) pt.Step {
	return pt.Step{Send: func(t *pt.Transcript) []byte {
		var nonce [nonceLen]byte
		pt.RandFill(t.Rand, nonce[:])
		pad := t.Rand.Intn(maxHandshakePad + 1)
		msg := make([]byte, nonceLen+macLen+2+pad)
		copy(msg, nonce[:])
		tag := pt.NewTag("obfs4", secret)
		tag.Put(msg[nonceLen:nonceLen+macLen], uint64(role), nonce[:])
		binary.BigEndian.PutUint16(msg[nonceLen+macLen:], uint16(pad))
		pt.RandFill(t.Rand, msg[nonceLen+macLen+2:])
		return msg
	}}
}

// peerHello reads the peer's flight, refuses it unless its MAC is the
// secret's tag for role, and discards its padding.
func peerHello(secret []byte, role byte) pt.Step {
	return pt.Step{N: nonceLen + macLen + 2, Check: func(_ *pt.Transcript, head []byte) (int, error) {
		tag := pt.NewTag("obfs4", secret)
		if !tag.Check(head[nonceLen:nonceLen+macLen], uint64(role), head[:nonceLen]) {
			return 0, ErrAuth
		}
		pad := int(binary.BigEndian.Uint16(head[nonceLen+macLen:]))
		if pad > maxHandshakePad {
			return 0, errors.New("obfs4: implausible padding")
		}
		return pad, nil
	}}
}

// records is the padded record layer both sides put over the conn.
func records(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
	return pt.NewRecordConn(conn, pt.RecordConfig{MaxPadding: maxRecordPad, Seed: t.Seed + 1})
}

// Transport declares obfs4's two handshakes: each side's hello, the
// client's first (1 RTT).
func Transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		Name: "obfs4", Keyed: len(cfg.Secret) > 0, Seed: cfg.Seed, DialerOffset: 7919,
		Client: pt.Handshake{Steps: []pt.Step{hello(cfg.Secret, 'c'), peerHello(cfg.Secret, 's')}, Records: records},
		Server: pt.Handshake{Steps: []pt.Step{peerHello(cfg.Secret, 'c'), hello(cfg.Secret, 's')}, Records: records},
	}
}
