// Package cloak models the mimicry transport that disguises traffic as
// regular browser TLS. Its distinctive property — kept here — is
// zero-round-trip authentication: the client's first flight is a
// ClientHello-shaped message whose "client random" carries a proof tied
// to the client's UID, so application data flows immediately after the
// TCP dial, without waiting for any server response. This is why the
// paper finds cloak among the fastest transports despite being mimicry.
// What is modelled is the wire size of every flight and record, the
// round trips (none) and the refusal of a hello with a wrong UID; record
// payloads are sent as they are, and nothing is secret.
//
// cloak is an integration-set-3 transport: the PT server runs the Tor
// client, so the stream prologue carries the final destination.
package cloak

import (
	"errors"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// clientHelloLen mirrors a typical browser ClientHello.
const clientHelloLen = 517

// redirAddr is the innocuous domain presented as SNI.
const redirAddr = "bing.com"

// ErrAuth reports a ClientHello whose steganographic random fails
// validation; real cloak silently proxies such clients to a decoy, we
// just refuse.
var ErrAuth = errors.New("cloak: steganographic authentication failed")

// Config carries the transport parameters.
type Config struct {
	// UID is the client's identity key from the cloak config.
	UID []byte
	// Seed drives session randomness.
	Seed int64
}

var tlsAppHeader = []byte{0x17, 0x03, 0x03}

// serverHelloLen is the fixed size of the mimicked ServerHello flight.
const serverHelloLen = 3 + 32 + 90

// serverHello is the ServerHello flight; the client does not wait for
// it before sending data, preserving the zero-RTT property.
var serverHello = pt.Step{Send: func(t *pt.Transcript) []byte {
	sh := make([]byte, serverHelloLen)
	sh[0], sh[1], sh[2] = 0x16, 0x03, 0x03
	pt.RandFill(t.Rand, sh[3:])
	return sh
}}

// Transport declares cloak's two handshakes: the ClientHello, then the
// ServerHello the client does not wait for (zero RTT).
func Transport(cfg Config) pt.WrapTransport {
	// The mimicked first flight. Layout:
	// type(1)‖ver(2)‖random(32)‖proof(32)‖sni-len(1)‖sni‖pad to 517.
	clientHello := pt.Step{Send: func(t *pt.Transcript) []byte {
		hello := make([]byte, clientHelloLen)
		hello[0], hello[1], hello[2] = 0x16, 0x03, 0x01
		random := hello[3:35]
		pt.RandFill(t.Rand, random)
		proof := pt.NewTag("cloak", cfg.UID)
		proof.Put(hello[35:67], 0, random)
		hello[67] = byte(len(redirAddr))
		copy(hello[68:], redirAddr)
		pt.RandFill(t.Rand, hello[68+len(redirAddr):])
		return hello
	}}
	// The server refuses a hello whose random lacks the UID's proof.
	checkHello := pt.Step{N: clientHelloLen, Check: func(_ *pt.Transcript, hello []byte) (int, error) {
		proof := pt.NewTag("cloak", cfg.UID)
		if hello[0] != 0x16 || !proof.Check(hello[35:67], 0, hello[3:35]) {
			return 0, ErrAuth
		}
		return 0, nil
	}}
	return pt.WrapTransport{
		Name: "cloak", Keyed: len(cfg.UID) > 0, Seed: cfg.Seed, DialerOffset: 49979687,
		// The client sends its hello and layers records at once (zero
		// RTT): the ServerHello is skipped by the first read, so the
		// inbound records stay aligned.
		Client: pt.Handshake{Steps: []pt.Step{clientHello}, Records: func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
			rc := pt.NewCodecConn(conn, pt.NewRecordCodec(pt.RecordConfig{Header: tlsAppHeader, Seed: t.Seed + 1}))
			rc.SkipFirst(serverHelloLen)
			return rc, nil
		}},
		Server: pt.Handshake{Steps: []pt.Step{checkHello, serverHello}, Records: func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
			return pt.NewRecordConn(conn, pt.RecordConfig{Header: tlsAppHeader, Seed: t.Seed + 1})
		}},
	}
}
