// Package cloak implements the mimicry transport that disguises traffic
// as regular browser TLS. Its distinctive property — kept here — is
// zero-round-trip authentication: the client's first flight is a
// ClientHello-shaped message whose "client random" steganographically
// authenticates the session, so application data flows immediately after
// the TCP dial, without waiting for any server response. This is why the
// paper finds cloak among the fastest transports despite being mimicry.
//
// cloak is an integration-set-3 transport: the PT server runs the Tor
// client, so the stream prologue carries the final destination.
package cloak

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// clientHelloLen mirrors a typical browser ClientHello.
const clientHelloLen = 517

// ErrAuth reports a ClientHello whose steganographic random fails
// validation; real cloak silently proxies such clients to a decoy, we
// just refuse.
var ErrAuth = errors.New("cloak: steganographic authentication failed")

// Config carries the transport parameters.
type Config struct {
	// UID is the client's identity key from the cloak config.
	UID []byte
	// RedirAddr is the innocuous domain presented as SNI.
	RedirAddr string
	// Seed drives session randomness.
	Seed int64
}

var tlsAppHeader = []byte{0x17, 0x03, 0x03}

// buildClientHello assembles the mimicked first flight. Layout:
// type(1)‖ver(2)‖random(32)‖proof(32)‖sni-len(1)‖sni‖pad to 517.
func buildClientHello(cfg Config, rng *rand.Rand) ([]byte, []byte) {
	hello := make([]byte, clientHelloLen)
	hello[0], hello[1], hello[2] = 0x16, 0x03, 0x01
	random := hello[3:35]
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	mac := hmac.New(sha256.New, cfg.UID)
	mac.Write(random)
	copy(hello[35:67], mac.Sum(nil))
	hello[67] = byte(len(cfg.RedirAddr))
	copy(hello[68:], cfg.RedirAddr)
	for i := 68 + len(cfg.RedirAddr); i < clientHelloLen; i++ {
		hello[i] = byte(rng.Intn(256))
	}
	return hello, append([]byte(nil), random...)
}

func sessionKey(uid, random []byte) []byte {
	h := sha256.New()
	h.Write(uid)
	h.Write(random)
	h.Write([]byte("cloak-session"))
	return h.Sum(nil)
}

// serverHelloLen is the fixed size of the mimicked ServerHello flight.
const serverHelloLen = 3 + 32 + 90

// shSkipper defers consuming the ServerHello to the first read, so the
// client can start sending immediately after its ClientHello (zero RTT)
// while still keeping the inbound record stream aligned.
type shSkipper struct {
	net.Conn
	skipped bool
	err     error
}

func (s *shSkipper) Read(p []byte) (int, error) {
	if !s.skipped {
		s.skipped = true
		buf := make([]byte, serverHelloLen)
		_, s.err = io.ReadFull(s.Conn, buf)
	}
	if s.err != nil {
		return 0, s.err
	}
	return s.Conn.Read(p)
}

// clientWrap sends the ClientHello and immediately layers the record
// conn on top — zero RTT.
func clientWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	rng := rand.New(rand.NewSource(seed))
	hello, random := buildClientHello(cfg, rng)
	if _, err := conn.Write(hello); err != nil {
		return nil, err
	}
	return pt.NewRecordConn(&shSkipper{Conn: conn}, pt.RecordConfig{
		Key:      sessionKey(cfg.UID, random),
		IsClient: true,
		Header:   tlsAppHeader,
		Seed:     seed + 1,
	})
}

// serverWrap validates the ClientHello, replies with a ServerHello
// asynchronously (the client does not wait for it) and layers records.
func serverWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	hello := make([]byte, clientHelloLen)
	if _, err := io.ReadFull(conn, hello); err != nil {
		return nil, err
	}
	if hello[0] != 0x16 {
		return nil, ErrAuth
	}
	random := hello[3:35]
	mac := hmac.New(sha256.New, cfg.UID)
	mac.Write(random)
	if !hmac.Equal(mac.Sum(nil), hello[35:67]) {
		return nil, ErrAuth
	}
	// ServerHello flight; the client does not wait for it before
	// sending data, preserving the zero-RTT property.
	rng := rand.New(rand.NewSource(seed))
	sh := make([]byte, serverHelloLen)
	sh[0], sh[1], sh[2] = 0x16, 0x03, 0x03
	for i := 3; i < len(sh); i++ {
		sh[i] = byte(rng.Intn(256))
	}
	if _, err := conn.Write(sh); err != nil {
		return nil, err
	}
	rc, err := pt.NewRecordConn(conn, pt.RecordConfig{
		Key:      sessionKey(cfg.UID, append([]byte(nil), random...)),
		IsClient: false,
		Header:   tlsAppHeader,
		Seed:     seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return rc, nil
}

// StartServer runs a cloak server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	if len(cfg.UID) == 0 {
		return nil, errors.New("cloak: server needs a client UID table")
	}
	seed := cfg.Seed
	return pt.ListenAndServe(host, port, func(conn net.Conn) (net.Conn, error) {
		seed++
		return serverWrap(conn, cfg, seed)
	}, handle)
}

// NewDialer returns the cloak client for a server at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	seed := cfg.Seed + 49979687
	return pt.DialerFunc(func(target string) (net.Conn, error) {
		if len(cfg.UID) == 0 {
			return nil, errors.New("cloak: dialer needs a UID")
		}
		seed++
		s := seed
		conn, err := pt.DialWrapped(host, addr, func(raw net.Conn) (net.Conn, error) {
			return clientWrap(raw, cfg, s)
		}, target)
		if err != nil {
			return nil, fmt.Errorf("cloak: %w", err)
		}
		return conn, nil
	})
}
