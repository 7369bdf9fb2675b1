package camoufler

import (
	"bytes"
	"testing"
)

// FuzzReadMessage: readMessage either rejects the bytes or returns
// exactly the message writeMessage would have encoded, and a read into a
// buffer that held another message returns what a read into a fresh one
// does.
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
