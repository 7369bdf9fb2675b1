package stegotorus

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecodeCover: a cover either fails to decode or yields a block
// that encodes and decodes to itself, and a hostile Content-Length is
// an error, not an allocation; a decode into a buffer that held another
// block returns what a decode into a fresh one does.
func FuzzDecodeCover(f *testing.F) {
	var seed bytes.Buffer
	encodeCover(&seed, []byte("\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04data"))
	f.Add(seed.Bytes())
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: -1\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\ncontent-length: 4\r\n\r\n!!!!"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		block, err := decodeCover(bufio.NewReader(bytes.NewReader(data)), nil)
		reused, rerr := decodeCover(bufio.NewReader(bytes.NewReader(data)), bytes.Repeat([]byte{0xa5}, 300))
		if (err == nil) != (rerr == nil) || !bytes.Equal(block, reused) {
			t.Fatalf("fresh decode (%q, %v), decode into a used buffer (%q, %v)", block, err, reused, rerr)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := encodeCover(&again, block); err != nil {
			t.Fatal(err)
		}
		back, err := decodeCover(bufio.NewReader(&again), nil)
		if err != nil || !bytes.Equal(back, block) {
			t.Fatalf("block %q did not survive a round trip: %q %v", block, back, err)
		}
	})
}
