package stegotorus

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestCoverCodecRoundTrip(t *testing.T) {
	f := func(block []byte) bool {
		var buf bytes.Buffer
		if err := encodeCover(&buf, block); err != nil {
			return false
		}
		got, err := decodeCover(bufio.NewReader(&buf), nil)
		if err != nil {
			return false
		}
		return bytes.Equal(got, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverLooksLikeHTTP(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeCover(&buf, []byte("secret tor cell")); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "POST /images/upload HTTP/1.1\r\n") {
		t.Fatalf("cover not HTTP-shaped: %q", text[:40])
	}
	if strings.Contains(text, "secret tor cell") {
		t.Fatal("payload leaked in cleartext")
	}
	if !strings.Contains(text, "Content-Length:") {
		t.Fatal("cover lacks Content-Length")
	}
}

func TestDecodeCoverRejectsGarbage(t *testing.T) {
	if _, err := decodeCover(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\n\r\n")), nil); err == nil {
		t.Fatal("non-cover request must be rejected")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Conns != DefaultConns || c.MinBlock != DefaultMinBlock || c.MaxBlock != DefaultMaxBlock {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := Config{MinBlock: 500, MaxBlock: 100}.withDefaults()
	if c2.MaxBlock < c2.MinBlock {
		t.Fatal("max must not stay below min")
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
