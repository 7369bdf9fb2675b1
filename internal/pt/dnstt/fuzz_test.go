package dnstt

import (
	"bytes"
	"testing"
)

// FuzzReadFrame: readFrame either rejects the bytes or returns exactly
// the frame writeFrame would have encoded, and a read into a buffer that
// held another frame returns what a read into a fresh one does.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	var wbuf []byte
	writeFrame(&seed, &wbuf, []byte("sessn-id\x00\x00\x00\x01"), []byte("payload"))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrame(bytes.NewReader(data), nil)
		used := bytes.Repeat([]byte{0xa5}, 300)
		reused, rerr := readFrame(bytes.NewReader(data), used)
		if (err == nil) != (rerr == nil) || !bytes.Equal(frame, reused) {
			t.Fatalf("fresh read (%q, %v), read into a used buffer (%q, %v)", frame, err, reused, rerr)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		writeFrame(&again, &wbuf, nil, frame)
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded %q does not re-encode to the input", frame)
		}
	})
}
