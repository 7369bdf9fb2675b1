package stegotorus

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"testing"
)

// decodeCover strips the HTTP cover off r and recovers the block: the
// loop decoder a fan-out conn's reader ran, kept as the reference
// cutCover and blockOf are held to. Header lines are read in place, out
// of r's buffer: one that does not fit it is no cover of ours
// (bufio.ErrBufferFull).
func decodeCover(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(line, []byte("POST /images/upload")) {
		return nil, errors.New("stegotorus: unexpected cover request")
	}
	var contentLen int
	for {
		h, err := r.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		h = bytes.TrimSpace(h)
		if len(h) == 0 {
			break
		}
		if rest, ok := cutPrefixFold(h, "content-length:"); ok {
			contentLen, err = strconv.Atoi(string(bytes.TrimSpace(rest)))
			if err != nil {
				return nil, err
			}
		}
	}
	if contentLen < 0 || contentLen > maxCover {
		return nil, errors.New("stegotorus: bad cover length")
	}
	body := make([]byte, contentLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return blockOf(body)
}

// FuzzDecodeCover: a cover either fails to decode or yields a block
// that encodes and decodes to itself, and a hostile Content-Length is
// an error, not an allocation; and cutCover with blockOf, what a fan-out
// conn runs, fails or yields the block exactly where decodeCover over a
// maxLine reader does.
func FuzzDecodeCover(f *testing.F) {
	var seed bytes.Buffer
	encodeCover(&seed, []byte("\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04data"))
	f.Add(seed.Bytes())
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: -1\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\ncontent-length: 4\r\n\r\n!!!!"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: 24\r\n\r\n\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x05data"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		block, err := decodeCover(bufio.NewReader(bytes.NewReader(data)))
		ref, referr := decodeCover(bufio.NewReaderSize(bytes.NewReader(data), maxLine))
		body, end, cerr := cutCover(data)
		var cut []byte
		if cerr == nil && end == 0 {
			cerr = io.ErrUnexpectedEOF
		}
		if cerr == nil {
			cut, cerr = blockOf(data[body:end])
		}
		if (referr == nil) != (cerr == nil) || !bytes.Equal(ref, cut) {
			t.Fatalf("decodeCover (%q, %v), cutCover and blockOf (%q, %v)", ref, referr, cut, cerr)
		}

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
