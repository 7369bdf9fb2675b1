package dnstt

import (
	"bytes"
	"testing"
)

// FuzzReadFrame: readFrame either rejects the bytes or returns exactly
// the frame writeFrame would have encoded.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	writeFrame(&seed, []byte("sessn-id\x00\x00\x00\x01"), []byte("payload"))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		writeFrame(&again, nil, frame)
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded %q does not re-encode to the input", frame)
		}
	})
}
