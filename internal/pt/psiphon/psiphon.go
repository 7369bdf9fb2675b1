// Package psiphon models the proxy-layer transport built on an SSH
// tunnel, in the default configuration the paper evaluates: an SSH-style
// version and key exchange (two round trips) in which the server proves
// it holds the pre-shared host key, then binary packets with per-packet
// MACs. What is modelled is the wire size of every flight and packet,
// the round trips, and the refusals: a server with another host key, and
// a packet corrupted, out of order or tagged under another session's
// key. Payloads are sent as they are; nothing is secret.
//
// psiphon is an integration-set-2 transport.
package psiphon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

const (
	macLen = 16
	// proofLen is the host-key proof's length, that of an HMAC-SHA256.
	proofLen = 32
)

// Errors reported by the handshake and packet layer.
var (
	// ErrVersion reports an unexpected protocol banner.
	ErrVersion = errors.New("psiphon: bad version banner")
	// ErrHostKey reports server authentication failure.
	ErrHostKey = errors.New("psiphon: host key mismatch")
	// ErrMAC reports packet integrity failure.
	ErrMAC = errors.New("psiphon: packet MAC mismatch")
)

var banner = []byte("SSH-2.0-PsiphonTunnel\r\n")

// Config carries the transport parameters.
type Config struct {
	// HostKey is the pre-shared server public key fingerprint.
	HostKey []byte
	// Seed drives key-exchange randomness.
	Seed int64
}

// maxPacket is the most payload one binary packet carries.
const maxPacket = 32 << 10

// packetCodec is psiphon's record shape under pt.RecordConn:
// [4B len][payload][16B MAC], the MAC each direction's tag of the
// payload with the packet's sequence number as its counter.
type packetCodec struct {
	send, recv       pt.Tag
	sendSeq, recvSeq uint64
}

// NewCodec returns one end's packet codec for a session secret.
func NewCodec(secret []byte, isClient bool) pt.RecordCodec {
	c := &packetCodec{send: pt.NewTag("c2s", secret), recv: pt.NewTag("s2c", secret)}
	if !isClient {
		c.send, c.recv = c.recv, c.send
	}
	return c
}

func (c *packetCodec) Sizes() (maxPayload, headerLen, maxBody int) {
	return maxPacket, 4, maxPacket + macLen
}

func (c *packetCodec) Seal(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(append(dst, payload...), make([]byte, macLen)...)
	c.send.Put(dst[len(dst)-macLen:], c.sendSeq, payload)
	c.sendSeq++
	return dst
}

func (c *packetCodec) BodyLen(header []byte) (int, error) {
	return int(binary.BigEndian.Uint32(header)) + macLen, nil
}

func (c *packetCodec) Open(_, body []byte) ([]byte, error) {
	n := len(body) - macLen
	if !c.recv.Check(body[n:], c.recvSeq, body[:n]) {
		return nil, ErrMAC
	}
	c.recvSeq++
	return body[:n], nil
}

// clientWrap runs banner exchange + kex (2 RTTs).
func clientWrap(conn netem.Stream, cfg Config, seed int64) (netem.Stream, error) {
	// RTT 1: version banners.
	if _, err := conn.Write(banner); err != nil {
		return nil, err
	}
	peer := make([]byte, len(banner))
	if _, err := io.ReadFull(conn, peer); err != nil {
		return nil, err
	}
	if !bytes.Equal(peer, banner) {
		return nil, ErrVersion
	}
	// RTT 2: kexinit + host key verification.
	kex := make([]byte, 64)
	pt.RandFill(sim.NewRand(seed), kex)
	if _, err := conn.Write(kex); err != nil {
		return nil, err
	}
	reply := make([]byte, 64+proofLen)
	if _, err := io.ReadFull(conn, reply); err != nil {
		return nil, err
	}
	serverKex := reply[:64]
	proof := pt.NewTag("psiphon", cfg.HostKey, kex)
	if !proof.Check(reply[64:], 0, serverKex) {
		return nil, ErrHostKey
	}
	secret := append(append(append([]byte{}, cfg.HostKey...), kex...), serverKex...)
	return pt.NewCodecConn(conn, NewCodec(secret, true)), nil
}

// serverWrap mirrors the client handshake.
func serverWrap(conn netem.Stream, cfg Config, seed int64) (netem.Stream, error) {
	peer := make([]byte, len(banner))
	if _, err := io.ReadFull(conn, peer); err != nil {
		return nil, err
	}
	if !bytes.Equal(peer, banner) {
		return nil, ErrVersion
	}
	if _, err := conn.Write(banner); err != nil {
		return nil, err
	}
	kex := make([]byte, 64)
	if _, err := io.ReadFull(conn, kex); err != nil {
		return nil, err
	}
	reply := make([]byte, 64+proofLen)
	serverKex := reply[:64]
	pt.RandFill(sim.NewRand(seed), serverKex)
	proof := pt.NewTag("psiphon", cfg.HostKey, kex)
	proof.Put(reply[64:], 0, serverKex)
	if _, err := conn.Write(reply); err != nil {
		return nil, err
	}
	secret := append(append(append([]byte{}, cfg.HostKey...), kex...), serverKex...)
	return pt.NewCodecConn(conn, NewCodec(secret, false)), nil
}

func transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		Name: "psiphon", Keyed: len(cfg.HostKey) > 0, Seed: cfg.Seed, DialerOffset: 32452843,
		Client: func(conn netem.Stream, seed int64) (netem.Stream, error) { return clientWrap(conn, cfg, seed) },
		Server: func(conn netem.Stream, seed int64) (netem.Stream, error) { return serverWrap(conn, cfg, seed) },
	}
}

// StartServer runs a psiphon server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	return transport(cfg).StartServer(host, port, handle)
}

// NewDialer returns the psiphon client for a server at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	return transport(cfg).NewDialer(host, addr)
}
