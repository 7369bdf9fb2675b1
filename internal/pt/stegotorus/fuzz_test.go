package stegotorus

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecodeCover: a cover either fails to decode or yields a block
// that encodes and decodes to itself, and a hostile Content-Length is
// an error, not an allocation.
func FuzzDecodeCover(f *testing.F) {
	var seed bytes.Buffer
	encodeCover(&seed, []byte("\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04data"))
	f.Add(seed.Bytes())
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: -1\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\ncontent-length: 4\r\n\r\n!!!!"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		block, err := decodeCover(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := encodeCover(&again, block); err != nil {
			t.Fatal(err)
		}
		back, err := decodeCover(bufio.NewReader(&again))
		if err != nil || !bytes.Equal(back, block) {
			t.Fatalf("block %q did not survive a round trip: %q %v", block, back, err)
		}
	})
}
