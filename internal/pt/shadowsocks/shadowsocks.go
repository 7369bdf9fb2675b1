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
	"io"
	"net"
	"slices"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
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

// aeadCodec is the shadowsocks AEAD chunk under pt.RecordConn:
// [len+tag][payload+tag], each part sealed under the next nonce of its
// direction.
type aeadCodec struct {
	send, recv           cipher.AEAD
	sendNonce, recvNonce uint64
	// Scratch of the AEAD calls, so that no record puts it on the heap.
	nonce  [12]byte
	lenBuf [2]byte
}

// NewCodec returns one end's chunk codec for a session's salt.
func NewCodec(psk, salt []byte, isClient bool) pt.RecordCodec {
	c := &aeadCodec{send: subkey(psk, salt, "c2s"), recv: subkey(psk, salt, "s2c")}
	if !isClient {
		c.send, c.recv = c.recv, c.send
	}
	return c
}

func (c *aeadCodec) Sizes() (maxPayload, headerLen, maxBody int) {
	return maxChunk, 2 + tagLen, maxChunk + tagLen
}

func (c *aeadCodec) Seal(dst, payload []byte) []byte {
	binary.BigEndian.PutUint16(c.lenBuf[:], uint16(len(payload)))
	dst = slices.Grow(dst, 2+tagLen+len(payload)+tagLen)
	dst = c.send.Seal(dst, c.nonceBytes(c.sendNonce), c.lenBuf[:], nil)
	dst = c.send.Seal(dst, c.nonceBytes(c.sendNonce+1), payload, nil)
	c.sendNonce += 2
	return dst
}

func (c *aeadCodec) BodyLen(header []byte) (int, error) {
	lenPlain, err := c.recv.Open(c.lenBuf[:0], c.nonceBytes(c.recvNonce), header, nil)
	if err != nil {
		return 0, ErrCipher
	}
	return int(binary.BigEndian.Uint16(lenPlain)) + tagLen, nil
}

func (c *aeadCodec) Open(_, body []byte) ([]byte, error) {
	plain, err := c.recv.Open(body[:0], c.nonceBytes(c.recvNonce+1), body, nil)
	if err != nil {
		return nil, ErrCipher
	}
	c.recvNonce += 2
	return plain, nil
}

// subkey derives the session key for one direction from PSK and salt.
func subkey(psk, salt []byte, label string) cipher.AEAD {
	h := sha256.New()
	h.Write(psk)
	h.Write(salt)
	h.Write([]byte(label))
	block, err := aes.NewCipher(h.Sum(nil)[:16])
	if err != nil {
		panic(err) // unreachable: the key is 16 bytes
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // unreachable: AES has GCM's block size
	}
	return aead
}

// nonceBytes is valid until the next call: no AEAD call parks, so one
// nonce serves both directions.
func (c *aeadCodec) nonceBytes(n uint64) []byte {
	binary.LittleEndian.PutUint64(c.nonce[:8], n)
	return c.nonce[:]
}

// clientWrap sends the salt and builds the AEAD pair (zero RTT).
func clientWrap(conn net.Conn, cfg Config, seed int64) (net.Conn, error) {
	salt := make([]byte, saltLen)
	pt.RandFill(sim.NewRand(seed), salt)
	if _, err := conn.Write(salt); err != nil {
		return nil, err
	}
	return pt.NewCodecConn(conn, NewCodec(cfg.PSK, salt, true)), nil
}

// serverWrap reads the salt and mirrors the AEAD pair.
func serverWrap(conn net.Conn, cfg Config) (net.Conn, error) {
	salt := make([]byte, saltLen)
	if _, err := io.ReadFull(conn, salt); err != nil {
		return nil, err
	}
	return pt.NewCodecConn(conn, NewCodec(cfg.PSK, salt, false)), nil
}

func transport(cfg Config) pt.WrapTransport {
	return pt.WrapTransport{
		Name: "shadowsocks", Keyed: len(cfg.PSK) > 0, Seed: cfg.Seed, DialerOffset: 104729,
		Client: func(conn net.Conn, seed int64) (net.Conn, error) { return clientWrap(conn, cfg, seed) },
		Server: func(conn net.Conn, _ int64) (net.Conn, error) { return serverWrap(conn, cfg) },
	}
}

// StartServer runs a shadowsocks server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	return transport(cfg).StartServer(host, port, handle)
}

// NewDialer returns the shadowsocks client for a server at addr.
func NewDialer(host *netem.Host, addr string, cfg Config) pt.Dialer {
	return transport(cfg).NewDialer(host, addr)
}
