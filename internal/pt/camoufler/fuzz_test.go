package camoufler

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"

	"ptperf/internal/pt"
)

// readMessage is the provider's read loop as it was before it ran on
// clock events: it reads one message from r with io.ReadFull, into
// *buf's array. It is the reference the cut and parse of a message are
// held to, and the tests read messages with it.
func readMessage(r io.Reader, buf *[]byte) (to []byte, seq uint64, payload []byte, err error) {
	b := slices.Grow((*buf)[:0], 2)[:2]
	if _, err = io.ReadFull(r, b); err != nil {
		return
	}
	n := int(binary.BigEndian.Uint16(b))
	b = slices.Grow(b[:0], n)[:n]
	*buf = b
	if _, err = io.ReadFull(r, b); err != nil {
		return
	}
	return parseMessage(b)
}

// FuzzReadMessage: readMessage either rejects the bytes or returns
// exactly the message writeMessage would have encoded, and a read into a
// buffer that held another message returns what a read into a fresh one
// does; an imConn's pt.Prefix16 cut and parseMessage agree with it.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	var wbuf []byte
	writeMessage(&seed, &wbuf, "acct-p1", 3, []byte("payload"))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0})   // shortest legal message
	f.Add([]byte{0, 9, 200, 0, 0, 0, 0, 0, 0, 0, 0}) // account longer than the message
	f.Add([]byte{0, 3, 1, 'a', 0})                   // too short for a seq
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh []byte
		to, seq, payload, err := readMessage(bytes.NewReader(data), &fresh)
		used := bytes.Repeat([]byte{0xa5}, 300)
		rto, rseq, reused, rerr := readMessage(bytes.NewReader(data), &used)
		if (err == nil) != (rerr == nil) || !bytes.Equal(to, rto) || seq != rseq || !bytes.Equal(payload, reused) {
			t.Fatalf("fresh read (%q, %d, %q, %v), read into a used buffer (%q, %d, %q, %v)", to, seq, payload, err, rto, rseq, reused, rerr)
		}
		// What an imConn cuts and parses is what readMessage reads.
		if body, end, _ := pt.Prefix16(data); end > 0 {
			cto, cseq, cpayload, cerr := parseMessage(data[body:end])
			if (err == nil) != (cerr == nil) || !bytes.Equal(to, cto) || seq != cseq || !bytes.Equal(payload, cpayload) {
				t.Fatalf("readMessage (%q, %d, %q, %v), cut and parsed (%q, %d, %q, %v)", to, seq, payload, err, cto, cseq, cpayload, cerr)
			}
		} else if err == nil {
			t.Fatalf("readMessage read (%q, %d, %q) where Prefix16 cuts no frame", to, seq, payload)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeMessage(&again, &wbuf, string(to), seq, payload); err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%q, %d, %q) does not re-encode to the input", to, seq, payload)
		}
	})
}
