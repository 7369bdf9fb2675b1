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
	"fmt"
	"io"
	"math/rand"
	"net"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
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

// packetConn frames payloads as [4B len][payload][16B MAC].
type packetConn struct {
	net.Conn
	sendKey, recvKey []byte
	sendSeq, recvSeq uint64

	pending []byte
}

func packetMAC(key []byte, seq uint64, payload []byte) []byte {
	mac := hmac.New(sha256.New, key)
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	mac.Write(s[:])
	mac.Write(payload)
	return mac.Sum(nil)[:macLen]
}

const maxPacket = 32 << 10

// Write implements net.Conn.
func (c *packetConn) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxPacket {
			n = maxPacket
		}
		pkt := make([]byte, 4+n+macLen)
		binary.BigEndian.PutUint32(pkt, uint32(n))
		copy(pkt[4:], p[:n])
		copy(pkt[4+n:], packetMAC(c.sendKey, c.sendSeq, p[:n]))
		c.sendSeq++
		if _, err := c.Conn.Write(pkt); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Read implements net.Conn.
func (c *packetConn) Read(p []byte) (int, error) {
	for len(c.pending) == 0 {
		var head [4]byte
		if _, err := io.ReadFull(c.Conn, head[:]); err != nil {
			return 0, err
		}
		n := int(binary.BigEndian.Uint32(head[:]))
		if n > maxPacket {
			return 0, errors.New("psiphon: oversized packet")
		}
		body := make([]byte, n+macLen)
		if _, err := io.ReadFull(c.Conn, body); err != nil {
			return 0, err
		}
		want := packetMAC(c.recvKey, c.recvSeq, body[:n])
		if !hmac.Equal(want, body[n:]) {
			return 0, ErrMAC
		}
		c.recvSeq++
		c.pending = body[:n]
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

// CloseWrite forwards half close.
func (c *packetConn) CloseWrite() error {
	if hc, ok := c.Conn.(pt.HalfCloser); ok {
		return hc.CloseWrite()
	}
	return c.Conn.Close()
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
	rng := rand.New(rand.NewSource(seed))
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
	for i := range kex {
		kex[i] = byte(rng.Intn(256))
	}
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
	send, recv := directionKeys(secret[:], true)
	return &packetConn{Conn: conn, sendKey: send, recvKey: recv}, nil
}

// serverWrap mirrors the client handshake.
func serverWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	rng := rand.New(rand.NewSource(seed))
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
	for i := range serverKex {
		serverKex[i] = byte(rng.Intn(256))
	}
	mac := hmac.New(sha256.New, cfg.HostKey)
	mac.Write(kex)
	mac.Write(serverKex)
	reply := append(append([]byte{}, serverKex...), mac.Sum(nil)...)
	if _, err := conn.Write(reply); err != nil {
		return nil, err
	}
	secret := sha256.Sum256(append(append(append([]byte{}, cfg.HostKey...), kex...), serverKex...))
	send, recv := directionKeys(secret[:], false)
	return &packetConn{Conn: conn, sendKey: send, recvKey: recv}, nil
}

// StartServer runs a psiphon server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	if len(cfg.HostKey) == 0 {
		return nil, errors.New("psiphon: server needs a host key")
	}
	seed := cfg.Seed
	return pt.ListenAndServe(host, port, func(conn net.Conn) (net.Conn, error) {
		seed++
		return serverWrap(conn, cfg, seed)
	}, handle)
}

// NewDialer returns the psiphon client for a server at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	seed := cfg.Seed + 32452843
	return pt.DialerFunc(func(target string) (net.Conn, error) {
		if len(cfg.HostKey) == 0 {
			return nil, errors.New("psiphon: dialer needs a host key")
		}
		seed++
		s := seed
		conn, err := pt.DialWrapped(host, addr, func(raw net.Conn) (net.Conn, error) {
			return clientWrap(raw, cfg, s)
		}, target)
		if err != nil {
			return nil, fmt.Errorf("psiphon: %w", err)
		}
		return conn, nil
	})
}
