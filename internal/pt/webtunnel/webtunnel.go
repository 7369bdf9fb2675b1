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

	"ptperf/internal/netem"
	"ptperf/internal/pt"
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

var upgradeResponse = []byte("HTTP/1.1 101 Switching Protocols\r\n\r\n")

// serverHello is the ServerHello with a certificate-sized blob (~1.2 KB
// like a real leaf certificate chain element).
var serverHello = pt.Step{Send: func(t *pt.Transcript) []byte {
	certLen := 1100 + t.Rand.Intn(300)
	sh := make([]byte, 3+32+2+certLen)
	sh[0], sh[1], sh[2] = 0x16, 0x03, 0x03
	pt.RandFill(t.Rand, sh[3:3+32])
	sh[3+32] = byte(certLen >> 8)
	sh[3+33] = byte(certLen)
	pt.RandFill(t.Rand, sh[3+34:])
	return sh
}}

// peerHello receives the n-byte head of the peer's hello, refuses it
// unless it is a handshake record, and discards the SNI or certificate
// its last lenBytes bytes count.
func peerHello(n, lenBytes int) pt.Step {
	return pt.Step{N: n, Check: func(_ *pt.Transcript, head []byte) (int, error) {
		if head[0] != 0x16 {
			return 0, ErrHandshake
		}
		follow := 0
		for _, b := range head[n-lenBytes:] {
			follow = follow<<8 | int(b)
		}
		return follow, nil
	}}
}

// Transport declares webtunnel's two handshakes: ClientHello/ServerHello
// +Finished (2 RTT) and the HTTP upgrade (1 RTT folded into the Finished
// flight).
func Transport(cfg Config) pt.WrapTransport {
	clientHello := pt.Step{Send: func(t *pt.Transcript) []byte {
		hello := make([]byte, 3+32, 3+32+1+len(cfg.SNI))
		hello[0], hello[1], hello[2] = 0x16, 0x03, 0x01 // handshake record
		pt.RandFill(t.Rand, hello[3:])
		return append(append(hello, byte(len(cfg.SNI))), cfg.SNI...)
	}}
	// The server reads the upgrade request as it arrives, up to its
	// terminator: the client sends nothing more before the response.
	request := pt.Step{N: 4096, Until: []byte("\r\n\r\n"), Check: func(_ *pt.Transcript, req []byte) (int, error) {
		if !bytes.HasPrefix(req, []byte("GET /tunnel")) {
			return 0, ErrHandshake
		}
		return 0, nil
	}}
	records := func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
		return pt.NewRecordConn(conn, pt.RecordConfig{Header: tlsRecordHeader, Seed: t.Seed + 1})
	}
	return pt.WrapTransport{
		// webtunnel's handshake checks no secret.
		Name: "webtunnel", Keyed: true, Seed: cfg.Seed, DialerOffset: 15485863,
		Client: pt.Handshake{Steps: []pt.Step{
			clientHello, peerHello(3+32+2, 2),
			pt.Send([]byte("GET /tunnel HTTP/1.1\r\nUpgrade: websocket\r\n\r\n")), pt.Expect(upgradeResponse, ErrHandshake),
		}, Records: records},
		Server: pt.Handshake{Steps: []pt.Step{
			peerHello(3+32+1, 1), serverHello, request, pt.Send(upgradeResponse),
		}, Records: records},
	}
}
