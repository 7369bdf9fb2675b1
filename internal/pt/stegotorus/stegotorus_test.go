package stegotorus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestCoverCodecRoundTrip(t *testing.T) {
	f := func(seq uint64, payload []byte) bool {
		block := binary.BigEndian.AppendUint64(make([]byte, 8), seq)
		block = append(binary.BigEndian.AppendUint32(block, uint32(len(payload))), payload...)
		var buf bytes.Buffer
		if err := encodeCover(&buf, block); err != nil {
			return false
		}
		got, err := decodeCover(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return bytes.Equal(got, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverLooksLikeHTTP: a cover is an HTTP upload whose body is the
// block as it is, zero-filled to the length of its base64 form.
func TestCoverLooksLikeHTTP(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeCover(&buf, []byte("secret tor cell")); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "POST /images/upload HTTP/1.1\r\n") {
		t.Fatalf("cover not HTTP-shaped: %q", text[:40])
	}
	if !strings.HasSuffix(text, "\r\nContent-Length: 20\r\n\r\nsecret tor cell\x00\x00\x00\x00\x00") {
		t.Fatalf("cover body is not the block zero-filled to its base64 length: %q", text)
	}
}

func TestDecodeCoverRejectsGarbage(t *testing.T) {
	for _, cover := range []string{
		"GET / HTTP/1.1\r\n\r\n",
		"POST /images/upload HTTP/1.1\r\nContent-Length: 4\r\n\r\ndata",
		"POST /images/upload HTTP/1.1\r\nContent-Length: 24\r\n\r\n\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x05data",
	} {
		if _, err := decodeCover(bufio.NewReader(strings.NewReader(cover))); err == nil {
			t.Fatalf("%q must be rejected", cover)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c.Conns != DefaultConns {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestCutPrefixFold(t *testing.T) {
	if rest, ok := cutPrefixFold([]byte("Content-Length: 42"), "content-length:"); !ok || strings.TrimSpace(string(rest)) != "42" {
		t.Fatalf("fold failed: %q %v", rest, ok)
	}
	if _, ok := cutPrefixFold([]byte("Host: x"), "content-length:"); ok {
		t.Fatal("wrong header matched")
	}
}

// encodeCover sends block's cover in one Write, as a chopConn does.
func encodeCover(w io.Writer, block []byte) error {
	_, err := w.Write(appendCover(nil, block))
	return err
}
