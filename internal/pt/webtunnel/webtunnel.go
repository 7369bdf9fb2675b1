// Package webtunnel implements the HTTPT-style tunneling transport: the
// client completes a TLS-looking handshake with an innocuous web server
// (so a censor sees an ordinary HTTPS connection to an unblocked
// domain), then upgrades the connection into a Tor tunnel. The cost
// model follows the real webtunnel: two handshake round trips (TLS) plus
// one upgrade round trip, then a thin record layer — which is why the
// paper finds webtunnel among the fastest tunneling PTs.
//
// webtunnel is an integration-set-1 transport.
package webtunnel

import (
	"bytes"
	"errors"
	"io"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// tlsRecordHeader mimics TLS application-data record headers.
var tlsRecordHeader = []byte{0x17, 0x03, 0x03}

// Config carries the transport parameters.
type Config struct {
	// SNI is the innocuous domain presented in the ClientHello.
	SNI string
	// Seed drives handshake randomness.
	Seed int64
}

// ErrHandshake reports a malformed upgrade exchange.
var ErrHandshake = errors.New("webtunnel: handshake failed")

// clientWrap performs ClientHello/ServerHello+Finished (2 RTT) and the
// HTTP upgrade (1 RTT folded into the Finished flight).
func clientWrap(conn netem.Stream, cfg Config, seed int64) (netem.Stream, error) {
	hello := make([]byte, 0, 280)
	hello = append(hello, 0x16, 0x03, 0x01) // handshake record
	random := make([]byte, 32)
	pt.RandFill(sim.NewRand(seed), random)
	hello = append(hello, random...)
	hello = append(hello, byte(len(cfg.SNI)))
	hello = append(hello, cfg.SNI...)
	if _, err := conn.Write(hello); err != nil {
		return nil, err
	}
	// ServerHello + certificate blob.
	sh := make([]byte, 3+32+2)
	if _, err := io.ReadFull(conn, sh); err != nil {
		return nil, err
	}
	if sh[0] != 0x16 {
		return nil, ErrHandshake
	}
	certLen := int(sh[len(sh)-2])<<8 | int(sh[len(sh)-1])
	if _, err := io.CopyN(io.Discard, conn, int64(certLen)); err != nil {
		return nil, err
	}
	// Finished + upgrade request.
	if _, err := conn.Write([]byte("GET /tunnel HTTP/1.1\r\nUpgrade: websocket\r\n\r\n")); err != nil {
		return nil, err
	}
	resp := make([]byte, len(upgradeResponse))
	if _, err := io.ReadFull(conn, resp); err != nil {
		return nil, err
	}
	if !bytes.Equal(resp, upgradeResponse) {
		return nil, ErrHandshake
	}
	return pt.NewRecordConn(conn, pt.RecordConfig{
		Header: tlsRecordHeader,
		Seed:   seed + 1,
	})
}

var upgradeResponse = []byte("HTTP/1.1 101 Switching Protocols\r\n\r\n")

// serverWrap mirrors the handshake.
func serverWrap(conn netem.Stream, cfg Config, seed int64) (netem.Stream, error) {
	rng := sim.NewRand(seed)
	head := make([]byte, 3+32+1)
	if _, err := io.ReadFull(conn, head); err != nil {
		return nil, err
	}
	if head[0] != 0x16 {
		return nil, ErrHandshake
	}
	sniLen := int(head[len(head)-1])
	if _, err := io.CopyN(io.Discard, conn, int64(sniLen)); err != nil {
		return nil, err
	}
	// ServerHello with a certificate-sized blob (~1.2 KB like a real
	// leaf certificate chain element).
	certLen := 1100 + rng.Intn(300)
	sh := make([]byte, 3+32+2+certLen)
	sh[0], sh[1], sh[2] = 0x16, 0x03, 0x03
	pt.RandFill(rng, sh[3:3+32])
	sh[3+32] = byte(certLen >> 8)
	sh[3+33] = byte(certLen)
	pt.RandFill(rng, sh[3+34:])
	if _, err := conn.Write(sh); err != nil {
		return nil, err
	}
	// Read the upgrade request up to its terminator.
	req := make([]byte, 0, 128)
	one := make([]byte, 1)
	for !bytes.HasSuffix(req, []byte("\r\n\r\n")) {
		if _, err := io.ReadFull(conn, one); err != nil {
			return nil, err
		}
		req = append(req, one[0])
		if len(req) > 4096 {
			return nil, ErrHandshake
		}
	}
	if !bytes.HasPrefix(req, []byte("GET /tunnel")) {
		return nil, ErrHandshake
	}
	if _, err := conn.Write(upgradeResponse); err != nil {
		return nil, err
	}
	return pt.NewRecordConn(conn, pt.RecordConfig{
		Header: tlsRecordHeader,
		Seed:   seed + 1,
	})
}

func transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		// webtunnel's handshake checks no secret.
		Name: "webtunnel", Keyed: true, Seed: cfg.Seed, DialerOffset: 15485863,
		Client: func(conn netem.Stream, seed int64) (netem.Stream, error) { return clientWrap(conn, cfg, seed) },
		Server: func(conn netem.Stream, seed int64) (netem.Stream, error) { return serverWrap(conn, cfg, seed) },
	}
}

// StartServer runs a webtunnel server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	return transport(cfg).StartServer(host, port, handle)
}

// NewDialer returns the webtunnel client for a bridge at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	return transport(cfg).NewDialer(host, addr)
}
