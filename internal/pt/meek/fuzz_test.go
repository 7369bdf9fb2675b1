package meek

import (
	"bytes"
	"testing"
)

// FuzzReadPoll: whatever the front or a client sends, readPoll either
// rejects it or returns exactly what writePoll would have encoded.
func FuzzReadPoll(f *testing.F) {
	var seed bytes.Buffer
	writePoll(&seed, 7, []byte("body"))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		sid, body, err := readPoll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		writePoll(&again, sid, body)
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%d, %q) does not re-encode to the input", sid, body)
		}
	})
}

// FuzzReadReply is FuzzReadPoll for the response frame.
func FuzzReadReply(f *testing.F) {
	var seed bytes.Buffer
	writeReply(&seed, statusOK, []byte("chunk"))
	f.Add(seed.Bytes())
	f.Add([]byte{statusGone, 0, 0, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		status, body, err := readReply(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		writeReply(&again, status, body)
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%d, %q) does not re-encode to the input", status, body)
		}
	})
}
