// Package shadowsocks implements the second fully-encrypted transport:
// a pre-shared-key AEAD proxy with no handshake round trip. Every wire
// byte after the initial salt is AES-GCM ciphertext, so the stream is
// uniformly random to an observer, and the absence of a negotiation
// round trip is why shadowsocks bootstraps faster than obfs4.
//
// shadowsocks is an integration-set-2 transport: its server splices to
// the guard named in the stream prologue.
package shadowsocks

import (
	"crypto/aes"
	"crypto/cipher"
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

const (
	saltLen = 16
	tagLen  = 16
	// maxChunk matches the shadowsocks AEAD chunk limit (0x3FFF).
	maxChunk = 0x3fff
)

// ErrCipher reports AEAD authentication failure.
var ErrCipher = errors.New("shadowsocks: cipher authentication failed")

// Config carries the transport parameters.
type Config struct {
	// PSK is the pre-shared key.
	PSK []byte
	// Seed drives salt generation.
	Seed int64
}

// aeadConn implements the shadowsocks AEAD chunk stream over a net.Conn.
type aeadConn struct {
	net.Conn
	send, recv cipher.AEAD
	sendNonce  uint64
	recvNonce  uint64

	pending []byte
}

// subkey derives the session key for one direction from PSK and salt.
func subkey(psk, salt []byte, label string) (cipher.AEAD, error) {
	h := sha256.New()
	h.Write(psk)
	h.Write(salt)
	h.Write([]byte(label))
	key := h.Sum(nil)[:16]
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func nonceBytes(n uint64) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], n)
	return b[:]
}

// Write seals [len|tag][payload|tag] chunks.
func (c *aeadConn) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxChunk {
			n = maxChunk
		}
		var lenPlain [2]byte
		binary.BigEndian.PutUint16(lenPlain[:], uint16(n))
		out := make([]byte, 0, 2+tagLen+n+tagLen)
		out = c.send.Seal(out, nonceBytes(c.sendNonce), lenPlain[:], nil)
		c.sendNonce++
		out = c.send.Seal(out, nonceBytes(c.sendNonce), p[:n], nil)
		c.sendNonce++
		if _, err := c.Conn.Write(out); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Read opens the next chunk.
func (c *aeadConn) Read(p []byte) (int, error) {
	for len(c.pending) == 0 {
		sealedLen := make([]byte, 2+tagLen)
		if _, err := io.ReadFull(c.Conn, sealedLen); err != nil {
			return 0, err
		}
		lenPlain, err := c.recv.Open(nil, nonceBytes(c.recvNonce), sealedLen, nil)
		if err != nil {
			return 0, ErrCipher
		}
		c.recvNonce++
		n := int(binary.BigEndian.Uint16(lenPlain))
		sealed := make([]byte, n+tagLen)
		if _, err := io.ReadFull(c.Conn, sealed); err != nil {
			return 0, err
		}
		plain, err := c.recv.Open(nil, nonceBytes(c.recvNonce), sealed, nil)
		if err != nil {
			return 0, ErrCipher
		}
		c.recvNonce++
		c.pending = plain
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

// CloseWrite forwards half close.
func (c *aeadConn) CloseWrite() error {
	if hc, ok := c.Conn.(pt.HalfCloser); ok {
		return hc.CloseWrite()
	}
	return c.Conn.Close()
}

// clientWrap sends the salt and builds the AEAD pair (zero RTT).
func clientWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	rng := rand.New(rand.NewSource(seed))
	salt := make([]byte, saltLen)
	for i := range salt {
		salt[i] = byte(rng.Intn(256))
	}
	if _, err := conn.Write(salt); err != nil {
		return nil, err
	}
	send, err := subkey(cfg.PSK, salt, "c2s")
	if err != nil {
		return nil, err
	}
	recv, err := subkey(cfg.PSK, salt, "s2c")
	if err != nil {
		return nil, err
	}
	return &aeadConn{Conn: conn, send: send, recv: recv}, nil
}

// serverWrap reads the salt and mirrors the AEAD pair.
func serverWrap(conn net.Conn, cfg Config) (net.Conn, error) {
	salt := make([]byte, saltLen)
	if _, err := io.ReadFull(conn, salt); err != nil {
		return nil, err
	}
	send, err := subkey(cfg.PSK, salt, "s2c")
	if err != nil {
		return nil, err
	}
	recv, err := subkey(cfg.PSK, salt, "c2s")
	if err != nil {
		return nil, err
	}
	return &aeadConn{Conn: conn, send: send, recv: recv}, nil
}

// StartServer runs a shadowsocks server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	if len(cfg.PSK) == 0 {
		return nil, errors.New("shadowsocks: server needs a PSK")
	}
	return pt.ListenAndServe(host, port, func(conn net.Conn) (net.Conn, error) {
		return serverWrap(conn, cfg)
	}, handle)
}

// NewDialer returns the shadowsocks client for a server at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	seed := cfg.Seed + 104729
	return pt.DialerFunc(func(target string) (net.Conn, error) {
		if len(cfg.PSK) == 0 {
			return nil, errors.New("shadowsocks: dialer needs a PSK")
		}
		seed++
		s := seed
		conn, err := pt.DialWrapped(host, addr, func(raw net.Conn) (net.Conn, error) {
			return clientWrap(raw, cfg, s)
		}, target)
		if err != nil {
			return nil, fmt.Errorf("shadowsocks: %w", err)
		}
		return conn, nil
	})
}
