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
	"io"
	"math/rand"
	"net"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
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
	pt.RandFill(rng, random)
	mac := hmac.New(sha256.New, cfg.UID)
	mac.Write(random)
	copy(hello[35:67], mac.Sum(nil))
	hello[67] = byte(len(cfg.RedirAddr))
	copy(hello[68:], cfg.RedirAddr)
	pt.RandFill(rng, hello[68+len(cfg.RedirAddr):])
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

// clientWrap sends the ClientHello and immediately layers the record
// conn on top — zero RTT. The ServerHello is consumed by the first
// read, so the client can start sending at once while the inbound
// record stream stays aligned.
func clientWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	hello, random := buildClientHello(cfg, sim.NewRand(seed))
	if _, err := conn.Write(hello); err != nil {
		return nil, err
	}
	rc := pt.NewCodecConn(conn, pt.NewRecordCodec(pt.RecordConfig{
		Key:      sessionKey(cfg.UID, random),
		IsClient: true,
		Header:   tlsAppHeader,
		Seed:     seed + 1,
	}))
	rc.SkipFirst(serverHelloLen)
	return rc, nil
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
	sh := make([]byte, serverHelloLen)
	sh[0], sh[1], sh[2] = 0x16, 0x03, 0x03
	pt.RandFill(sim.NewRand(seed), sh[3:])
	if _, err := conn.Write(sh); err != nil {
		return nil, err
	}
	return pt.NewRecordConn(conn, pt.RecordConfig{
		Key:      sessionKey(cfg.UID, append([]byte(nil), random...)),
		IsClient: false,
		Header:   tlsAppHeader,
		Seed:     seed + 1,
	})
}

func transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		Name: "cloak", Keyed: len(cfg.UID) > 0, Seed: cfg.Seed, DialerOffset: 49979687,
		Client: func(conn net.Conn, seed int64) (net.Conn, error) { return clientWrap(conn, cfg, seed) },
		Server: func(conn net.Conn, seed int64) (net.Conn, error) { return serverWrap(conn, cfg, seed) },
	}
}

// StartServer runs a cloak server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	return transport(cfg).StartServer(host, port, handle)
}

// NewDialer returns the cloak client for a server at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	return transport(cfg).NewDialer(host, addr)
}
