package stegotorus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestCoverCodecRoundTrip: cutCover needs more bytes on every proper
// prefix of a cover appendCover writes, cuts the whole cover where it
// ends, with the next cover after it left uncut, and blockOf yields the
// block from its body; decodeCover, the reference, yields it too.
func TestCoverCodecRoundTrip(t *testing.T) {
	f := func(seq uint64, payload []byte, fin bool) bool {
		block := binary.BigEndian.AppendUint64(make([]byte, 8), seq)
		n := uint32(len(payload))
		if fin {
			n, payload = finLen, nil
		}
		block = append(binary.BigEndian.AppendUint32(block, n), payload...)
		cover := appendCover(nil, block)
		for i := range cover {
			if body, end, err := cutCover(cover[:i]); body != 0 || end != 0 || err != nil {
				t.Logf("prefix of %d of %d bytes: %d, %d, %v", i, len(cover), body, end, err)
				return false
			}
		}
		body, end, err := cutCover(appendCover(cover, block))
		if err != nil || end != len(cover) {
			return false
		}
		got, err := blockOf(cover[body:end])
		if err != nil || !bytes.Equal(got, block) {
			return false
		}
		ref, err := decodeCover(bufio.NewReader(bytes.NewReader(cover)))
		return err == nil && bytes.Equal(ref, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCutCoverRefusesAtFirstWrongByte: a cover's header whose byte i is
// one no cover has there is refused as soon as byte i is in, and so is
// a length past maxCover or with a leading zero.
func TestCutCoverRefusesAtFirstWrongByte(t *testing.T) {
	cover := appendCover(nil, make([]byte, maxBlock+blockHeader))
	head := bytes.Index(cover, []byte("\r\n\r\n")) + 4
	for i := 0; i < head; i++ {
		bad := append([]byte(nil), cover[:i+1]...)
		bad[i] = 0xff
		if _, _, err := cutCover(bad); err == nil {
			t.Fatalf("byte %d of the header changed: %q not refused", i, bad)
		}
	}
	for _, length := range []string{strconv.Itoa(maxCover + 1), "0" + strconv.Itoa(maxCover), "00", "\r\n\r\n"} {
		if _, _, err := cutCover([]byte(coverHead + length)); err == nil {
			t.Errorf("length %q not refused", length)
		}
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

// encodeCover sends block's cover in one Write, as a chopConn does.
func encodeCover(w io.Writer, block []byte) error {
	_, err := w.Write(appendCover(nil, block))
	return err
}
