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
	"io"
	"math/rand"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
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

// writeHandshake sends nonce ‖ MAC ‖ padLen ‖ padding, the MAC the
// secret's tag of the nonce with the role as its counter.
func writeHandshake(w io.Writer, secret []byte, role byte, rng *rand.Rand) error {
	nonce := make([]byte, nonceLen)
	pt.RandFill(rng, nonce)
	pad := rng.Intn(maxHandshakePad + 1)
	msg := make([]byte, nonceLen+macLen+2+pad)
	copy(msg, nonce)
	tag := pt.NewTag("obfs4", secret)
	tag.Put(msg[nonceLen:nonceLen+macLen], uint64(role), nonce)
	binary.BigEndian.PutUint16(msg[nonceLen+macLen:], uint16(pad))
	pt.RandFill(rng, msg[nonceLen+macLen+2:])
	_, err := w.Write(msg)
	return err
}

// readHandshake reads the peer's handshake and refuses it unless its MAC
// is the secret's tag for role.
func readHandshake(r io.Reader, secret []byte, role byte) error {
	head := make([]byte, nonceLen+macLen+2)
	if _, err := io.ReadFull(r, head); err != nil {
		return err
	}
	tag := pt.NewTag("obfs4", secret)
	if !tag.Check(head[nonceLen:nonceLen+macLen], uint64(role), head[:nonceLen]) {
		return ErrAuth
	}
	pad := int(binary.BigEndian.Uint16(head[nonceLen+macLen:]))
	if pad > maxHandshakePad {
		return errors.New("obfs4: implausible padding")
	}
	_, err := io.CopyN(io.Discard, r, int64(pad))
	return err
}

// clientWrap performs the client handshake and returns the framed conn.
func clientWrap(conn netem.Stream, cfg Config, seed int64) (netem.Stream, error) {
	if err := writeHandshake(conn, cfg.Secret, 'c', sim.NewRand(seed)); err != nil {
		return nil, err
	}
	if err := readHandshake(conn, cfg.Secret, 's'); err != nil {
		return nil, err
	}
	return pt.NewRecordConn(conn, pt.RecordConfig{
		MaxPadding: maxRecordPad,
		Seed:       seed + 1,
	})
}

// serverWrap performs the server handshake.
func serverWrap(conn netem.Stream, cfg Config, seed int64) (netem.Stream, error) {
	if err := readHandshake(conn, cfg.Secret, 'c'); err != nil {
		return nil, err
	}
	if err := writeHandshake(conn, cfg.Secret, 's', sim.NewRand(seed)); err != nil {
		return nil, err
	}
	return pt.NewRecordConn(conn, pt.RecordConfig{
		MaxPadding: maxRecordPad,
		Seed:       seed + 1,
	})
}

func transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		Name: "obfs4", Keyed: len(cfg.Secret) > 0, Seed: cfg.Seed, DialerOffset: 7919,
		Client: func(conn netem.Stream, seed int64) (netem.Stream, error) { return clientWrap(conn, cfg, seed) },
		Server: func(conn netem.Stream, seed int64) (netem.Stream, error) { return serverWrap(conn, cfg, seed) },
	}
}

// StartServer runs an obfs4 server on host:port, delivering unwrapped
// streams to handle.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	return transport(cfg).StartServer(host, port, handle)
}

// NewDialer returns the obfs4 client for a bridge at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	return transport(cfg).NewDialer(host, addr)
}
