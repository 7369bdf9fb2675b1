package marionette

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"
)

// frameReader reads frames off r into one buffer it keeps: the plain
// loop decoder, kept as the reference cutFrame and parseFrame are held
// to. A frame's cover and payload are valid until the next call.
type frameReader struct {
	r   io.Reader
	buf []byte // [cover][2B payload len][payload]
}

func (fr *frameReader) next() (cover, payload []byte, fin bool, err error) {
	b := slices.Grow(fr.buf[:0], 2)[:2]
	if _, err = io.ReadFull(fr.r, b); err != nil {
		return nil, nil, false, err
	}
	nc := int(binary.BigEndian.Uint16(b))
	b = slices.Grow(b[:0], nc+2)[:nc+2]
	fr.buf = b
	if _, err = io.ReadFull(fr.r, b[:nc]); err != nil {
		return nil, nil, false, err
	}
	if _, err = io.ReadFull(fr.r, b[nc:]); err != nil {
		return nil, nil, false, err
	}
	np := int(binary.BigEndian.Uint16(b[nc:]))
	if np == finLen {
		return b[:nc], nil, true, nil
	}
	b = slices.Grow(b, np)[:nc+2+np]
	fr.buf = b
	if _, err = io.ReadFull(fr.r, b[nc+2:]); err != nil {
		return nil, nil, false, err
	}
	return b[:nc], b[nc+2:], false, nil
}

// FuzzReadFrame: a frameReader either rejects the bytes or returns
// exactly the frame appendFrame would have encoded, and one
// whose buffer held another frame returns what a fresh one does; cutFrame
// needs more bytes exactly where the reader fails, and otherwise cuts the
// frame the reader read, which parseFrame splits as the reader did.
func FuzzReadFrame(f *testing.F) {
	var wbuf []byte
	f.Add(appendFrame(nil, "APPE upload.jpg\r\n", []byte("payload"), false))
	f.Add(appendFrame(nil, "QUIT\r\n", nil, true))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 2, 'h', 'i', 0, 9, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		whole := bytes.NewReader(data)
		cover, payload, fin, err := (&frameReader{r: whole}).next()
		used := frameReader{r: bytes.NewReader(data), buf: bytes.Repeat([]byte{0xa5}, 300)}
		rcover, rpayload, rfin, rerr := used.next()
		if (err == nil) != (rerr == nil) || fin != rfin || !bytes.Equal(cover, rcover) || !bytes.Equal(payload, rpayload) {
			t.Fatalf("fresh reader (%q, %q, fin=%v, %v), used reader (%q, %q, fin=%v, %v)",
				cover, payload, fin, err, rcover, rpayload, rfin, rerr)
		}
		_, end, cerr := cutFrame(data)
		if cerr != nil || (err == nil) != (end > 0) {
			t.Fatalf("the reader read (%q, %q, fin=%v, %v), cutFrame cut %d bytes (%v)", cover, payload, fin, err, end, cerr)
		}
		if err != nil {
			return
		}
		if end != len(data)-whole.Len() {
			t.Fatalf("cutFrame cut %d bytes, the reader read %d", end, len(data)-whole.Len())
		}
		if pcover, ppayload, pfin := parseFrame(data[:end]); pfin != fin || !bytes.Equal(pcover, cover) || !bytes.Equal(ppayload, payload) {
			t.Fatalf("parseFrame split (%q, %q, fin=%v), the reader (%q, %q, fin=%v)", pcover, ppayload, pfin, cover, payload, fin)
		}
		if fin && payload != nil {
			t.Fatal("a FIN frame carries no payload")
		}
		if wbuf = appendFrame(wbuf[:0], string(cover), payload, fin); !bytes.HasPrefix(data, wbuf) {
			t.Fatalf("decoded (%q, %q, fin=%v) does not re-encode to the input", cover, payload, fin)
		}
	})
}
