package camoufler

import (
	"bytes"
	"testing"
)

// FuzzReadMessage: readMessage either rejects the bytes or returns
// exactly the message writeMessage would have encoded.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	writeMessage(&seed, "acct-p1", 3, []byte("payload"))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0})   // shortest legal message
	f.Add([]byte{0, 9, 200, 0, 0, 0, 0, 0, 0, 0, 0}) // account longer than the message
	f.Add([]byte{0, 3, 1, 'a', 0})                   // too short for a seq
	f.Fuzz(func(t *testing.T, data []byte) {
		to, seq, payload, err := readMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeMessage(&again, to, seq, payload); err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%q, %d, %q) does not re-encode to the input", to, seq, payload)
		}
	})
}
