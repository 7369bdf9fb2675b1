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
// cutCover and blockOf are held to. It reads a wider grammar than
// appendCover writes: any header after the request line, in any case,
// the last Content-Length counting. Header lines are read in place, out
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
		if name := len("content-length:"); len(h) >= name && bytes.EqualFold(h[:name], []byte("content-length:")) {
			contentLen, err = strconv.Atoi(string(bytes.TrimSpace(h[name:])))
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

// FuzzDecodeCover: cutCover never panics, and whenever it and blockOf,
// what a fan-out conn runs, yield a block, decodeCover over an 8 KiB
// reader yields the same block and leaves the same bytes unread; and a
// block decodeCover yields survives appendCover and cutCover.
func FuzzDecodeCover(f *testing.F) {
	var seed bytes.Buffer
	encodeCover(&seed, []byte("\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04data"))
	f.Add(seed.Bytes())
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: -1\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\ncontent-length: 4\r\n\r\n!!!!"))
	f.Add([]byte("POST /images/upload HTTP/1.1\r\nContent-Length: 24\r\n\r\n\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x05data"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add(append(appendCover(nil, make([]byte, blockHeader)), coverHead...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if body, end, err := cutCover(data); err == nil && end > 0 {
			if block, err := blockOf(data[body:end]); err == nil {
				r := bufio.NewReaderSize(bytes.NewReader(data), 8<<10)
				ref, referr := decodeCover(r)
				rest, _ := io.ReadAll(r)
				if referr != nil || !bytes.Equal(ref, block) || !bytes.Equal(rest, data[end:]) {
					t.Fatalf("cutCover and blockOf read %q leaving %q, decodeCover (%q, %v) leaving %q", block, data[end:], ref, referr, rest)
				}
			}
		}

		block, err := decodeCover(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		cover := appendCover(nil, block)
		body, end, err := cutCover(cover)
		if err != nil || end != len(cover) {
			t.Fatalf("the cover of %q did not cut: %d, %d, %v", block, body, end, err)
		}
		if back, err := blockOf(cover[body:end]); err != nil || !bytes.Equal(back, block) {
			t.Fatalf("block %q did not survive a round trip: %q %v", block, back, err)
		}
	})
}
