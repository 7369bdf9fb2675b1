// Package obfs4 implements the fully-encrypted transport of the paper:
// a scramblesuit descendant whose traffic is indistinguishable from a
// uniformly random byte stream. The simulation keeps obfs4's costs: a
// one-round-trip authenticated handshake with random padding (clients
// hold an out-of-band shared secret, defeating active probing) and a
// length-obfuscated encrypted record stream.
//
// obfs4 is an integration-set-1 transport: its server feeds the
// co-located guard relay directly.
package obfs4

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"

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

// handshakeMsg is nonce ‖ MAC(secret, nonce‖role) ‖ padLen ‖ padding.
func writeHandshake(w io.Writer, secret []byte, role byte, rng *rand.Rand) ([]byte, error) {
	nonce := make([]byte, nonceLen)
	pt.RandFill(rng, nonce)
	mac := hmac.New(sha256.New, secret)
	mac.Write(nonce)
	mac.Write([]byte{role})
	tag := mac.Sum(nil)[:macLen]

	pad := rng.Intn(maxHandshakePad + 1)
	msg := make([]byte, nonceLen+macLen+2+pad)
	copy(msg, nonce)
	copy(msg[nonceLen:], tag)
	binary.BigEndian.PutUint16(msg[nonceLen+macLen:], uint16(pad))
	pt.RandFill(rng, msg[nonceLen+macLen+2:])
	if _, err := w.Write(msg); err != nil {
		return nil, err
	}
	return nonce, nil
}

func readHandshake(r io.Reader, secret []byte, role byte) ([]byte, error) {
	head := make([]byte, nonceLen+macLen+2)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	nonce := head[:nonceLen]
	mac := hmac.New(sha256.New, secret)
	mac.Write(nonce)
	mac.Write([]byte{role})
	want := mac.Sum(nil)[:macLen]
	if !hmac.Equal(want, head[nonceLen:nonceLen+macLen]) {
		return nil, ErrAuth
	}
	pad := int(binary.BigEndian.Uint16(head[nonceLen+macLen:]))
	if pad > maxHandshakePad {
		return nil, errors.New("obfs4: implausible padding")
	}
	if _, err := io.CopyN(io.Discard, r, int64(pad)); err != nil {
		return nil, err
	}
	return append([]byte(nil), nonce...), nil
}

func sessionKey(secret, clientNonce, serverNonce []byte) []byte {
	h := sha256.New()
	h.Write(secret)
	h.Write(clientNonce)
	h.Write(serverNonce)
	return h.Sum(nil)
}

// clientWrap performs the client handshake and returns the framed conn.
func clientWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	nc, err := writeHandshake(conn, cfg.Secret, 'c', sim.NewRand(seed))
	if err != nil {
		return nil, err
	}
	ns, err := readHandshake(conn, cfg.Secret, 's')
	if err != nil {
		return nil, err
	}
	return pt.NewRecordConn(conn, pt.RecordConfig{
		Key:        sessionKey(cfg.Secret, nc, ns),
		IsClient:   true,
		MaxPadding: maxRecordPad,
		Seed:       seed + 1,
	})
}

// serverWrap performs the server handshake.
func serverWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	nc, err := readHandshake(conn, cfg.Secret, 'c')
	if err != nil {
		return nil, err
	}
	ns, err := writeHandshake(conn, cfg.Secret, 's', sim.NewRand(seed))
	if err != nil {
		return nil, err
	}
	return pt.NewRecordConn(conn, pt.RecordConfig{
		Key:        sessionKey(cfg.Secret, nc, ns),
		IsClient:   false,
		MaxPadding: maxRecordPad,
		Seed:       seed + 1,
	})
}

func transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		Name: "obfs4", Keyed: len(cfg.Secret) > 0, Seed: cfg.Seed, DialerOffset: 7919,
		Client: func(conn net.Conn, seed int64) (net.Conn, error) { return clientWrap(conn, cfg, seed) },
		Server: func(conn net.Conn, seed int64) (net.Conn, error) { return serverWrap(conn, cfg, seed) },
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
