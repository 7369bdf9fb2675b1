// Package shadowsocks models the second fully-encrypted transport: a
// pre-shared-key proxy with no handshake round trip, which is why
// shadowsocks bootstraps faster than obfs4. What is modelled is the wire
// size (a 16-byte salt, then chunks in the AEAD shape: a 2-byte length
// and a payload, each followed by a 16-byte tag), the absence of a
// negotiation round trip, and the refusals: a chunk under another PSK or
// salt, corrupted or out of order. Each tag is a pt.Tag keyed per
// direction from PSK and salt, with the chunk nonce as its counter;
// payloads are sent as they are, and nothing is secret.
//
// shadowsocks is an integration-set-2 transport: its server splices to
// the guard named in the stream prologue.
package shadowsocks

import (
	"encoding/binary"
	"errors"
	"slices"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

const (
	saltLen = 16
	tagLen  = 16
	// maxChunk matches the shadowsocks AEAD chunk limit (0x3FFF).
	maxChunk = 0x3fff
)

// ErrTag reports a chunk whose length or payload tag does not check.
var ErrTag = errors.New("shadowsocks: chunk tag mismatch")

// Config carries the transport parameters.
type Config struct {
	// PSK is the pre-shared key.
	PSK []byte
	// Seed drives salt generation.
	Seed int64
}

// chunkCodec is the shadowsocks AEAD chunk under pt.RecordConn:
// [len][tag][payload][tag], each tag under the next nonce of its
// direction.
type chunkCodec struct {
	send, recv           pt.Tag
	sendNonce, recvNonce uint64
}

// NewCodec returns one end's chunk codec for a session's salt.
func NewCodec(psk, salt []byte, isClient bool) pt.RecordCodec {
	c := &chunkCodec{send: pt.NewTag("c2s", psk, salt), recv: pt.NewTag("s2c", psk, salt)}
	if !isClient {
		c.send, c.recv = c.recv, c.send
	}
	return c
}

func (c *chunkCodec) Sizes() (maxPayload, headerLen, maxBody int) {
	return maxChunk, 2 + tagLen, maxChunk + tagLen
}

func (c *chunkCodec) Seal(dst, payload []byte) []byte {
	dst = slices.Grow(dst, 2+tagLen+len(payload)+tagLen)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	dst = append(dst, make([]byte, tagLen)...)
	head := dst[len(dst)-2-tagLen:]
	c.send.Put(head[2:], c.sendNonce, head[:2])
	dst = append(append(dst, payload...), make([]byte, tagLen)...)
	c.send.Put(dst[len(dst)-tagLen:], c.sendNonce+1, payload)
	c.sendNonce += 2
	return dst
}

func (c *chunkCodec) BodyLen(header []byte) (int, error) {
	if !c.recv.Check(header[2:], c.recvNonce, header[:2]) {
		return 0, ErrTag
	}
	return int(binary.BigEndian.Uint16(header)) + tagLen, nil
}

func (c *chunkCodec) Open(_, body []byte) ([]byte, error) {
	n := len(body) - tagLen
	if !c.recv.Check(body[n:], c.recvNonce+1, body[:n]) {
		return nil, ErrTag
	}
	c.recvNonce += 2
	return body[:n], nil
}

// Transport declares shadowsocks's two handshakes: the client sends the
// salt and both ends key their codecs from it (zero RTT); the salt is
// flight 0 at either end.
func Transport(cfg Config) pt.WrapTransport {
	codec := func(isClient bool) func(netem.Stream, *pt.Transcript) (netem.Stream, error) {
		return func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
			return pt.NewCodecConn(conn, NewCodec(cfg.PSK, t.Flights[0], isClient)), nil
		}
	}
	return pt.WrapTransport{
		Name: "shadowsocks", Keyed: len(cfg.PSK) > 0, Seed: cfg.Seed, DialerOffset: 104729,
		Client: pt.Handshake{Steps: []pt.Step{pt.Random(saltLen)}, Records: codec(true)},
		Server: pt.Handshake{Steps: []pt.Step{{N: saltLen}}, Records: codec(false)},
	}
}
