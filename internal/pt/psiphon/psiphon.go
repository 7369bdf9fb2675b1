// Package psiphon implements the proxy-layer transport built on an SSH
// tunnel: the client authenticates the server with a pre-shared host
// key, runs an SSH-style version and key exchange (two round trips), and
// then carries traffic in binary packets with per-packet MACs — the
// default psiphon configuration the paper evaluates.
//
// psiphon is an integration-set-2 transport.
package psiphon

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"io"
	"net"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

const macLen = 16

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
// [4B len][payload][16B MAC], the MAC keyed per direction and bound to
// the packet's sequence number.
type packetCodec struct{ send, recv packetMAC }

// packetMAC is one direction's keyed hash, the sequence number of its
// next packet and the scratch a MAC is computed in.
type packetMAC struct {
	h   hash.Hash
	seq uint64
	sum [sha256.Size]byte
}

// NewCodec returns one end's packet codec for a session secret.
func NewCodec(secret []byte, isClient bool) pt.RecordCodec {
	send, recv := directionKeys(secret, isClient)
	return &packetCodec{send: packetMAC{h: hmac.New(sha256.New, send)}, recv: packetMAC{h: hmac.New(sha256.New, recv)}}
}

// next returns the MAC of the direction's next packet, valid until the
// following call; the caller advances seq once the packet stands.
func (m *packetMAC) next(payload []byte) []byte {
	m.h.Reset()
	binary.BigEndian.PutUint64(m.sum[:8], m.seq)
	m.h.Write(m.sum[:8])
	m.h.Write(payload)
	return m.h.Sum(m.sum[:0])[:macLen]
}

func (c *packetCodec) Sizes() (maxPayload, headerLen, maxBody int) {
	return maxPacket, 4, maxPacket + macLen
}

func (c *packetCodec) Seal(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(append(dst, payload...), c.send.next(payload)...)
	c.send.seq++
	return dst
}

func (c *packetCodec) BodyLen(header []byte) (int, error) {
	return int(binary.BigEndian.Uint32(header)) + macLen, nil
}

func (c *packetCodec) Open(_, body []byte) ([]byte, error) {
	n := len(body) - macLen
	if !hmac.Equal(c.recv.next(body[:n]), body[n:]) {
		return nil, ErrMAC
	}
	c.recv.seq++
	return body[:n], nil
}

func directionKeys(secret []byte, isClient bool) (send, recv []byte) {
	mk := func(label string) []byte {
		h := sha256.New()
		h.Write(secret)
		h.Write([]byte(label))
		return h.Sum(nil)
	}
	c2s, s2c := mk("c2s"), mk("s2c")
	if isClient {
		return c2s, s2c
	}
	return s2c, c2s
}

// clientWrap runs banner exchange + kex (2 RTTs).
func clientWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
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
	reply := make([]byte, 64+sha256.Size)
	if _, err := io.ReadFull(conn, reply); err != nil {
		return nil, err
	}
	serverKex := reply[:64]
	proof := reply[64:]
	mac := hmac.New(sha256.New, cfg.HostKey)
	mac.Write(kex)
	mac.Write(serverKex)
	if !hmac.Equal(mac.Sum(nil), proof) {
		return nil, ErrHostKey
	}
	secret := sha256.Sum256(append(append(append([]byte{}, cfg.HostKey...), kex...), serverKex...))
	return pt.NewCodecConn(conn, NewCodec(secret[:], true)), nil
}

// serverWrap mirrors the client handshake.
func serverWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
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
	serverKex := make([]byte, 64)
	pt.RandFill(sim.NewRand(seed), serverKex)
	mac := hmac.New(sha256.New, cfg.HostKey)
	mac.Write(kex)
	mac.Write(serverKex)
	reply := append(append([]byte{}, serverKex...), mac.Sum(nil)...)
	if _, err := conn.Write(reply); err != nil {
		return nil, err
	}
	secret := sha256.Sum256(append(append(append([]byte{}, cfg.HostKey...), kex...), serverKex...))
	return pt.NewCodecConn(conn, NewCodec(secret[:], false)), nil
}

func transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		Name: "psiphon", Keyed: len(cfg.HostKey) > 0, Seed: cfg.Seed, DialerOffset: 32452843,
		Client: func(conn net.Conn, seed int64) (net.Conn, error) { return clientWrap(conn, cfg, seed) },
		Server: func(conn net.Conn, seed int64) (net.Conn, error) { return serverWrap(conn, cfg, seed) },
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
