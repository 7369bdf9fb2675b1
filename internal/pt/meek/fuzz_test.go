package meek

import (
	"bytes"
	"testing"
)

// used is a buffer that held another frame.
func used() *[]byte { b := bytes.Repeat([]byte{0xa5}, 300); return &b }

// FuzzReadPoll: whatever the front or a client sends, readPoll either
// rejects it or returns exactly what writePoll would have encoded, never
// a body longer than chunk, and a read into a buffer that held another
// frame returns what a read into a fresh one does.
func FuzzReadPoll(f *testing.F) {
	var seed bytes.Buffer
	var wbuf []byte
	writePoll(&seed, &wbuf, 7, []byte("body"))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 'x'})
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1}, make([]byte, chunk+1)...)) // one byte over chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		sid, body, err := readPoll(bytes.NewReader(data), new([]byte))
		rsid, reused, rerr := readPoll(bytes.NewReader(data), used())
		if (err == nil) != (rerr == nil) || sid != rsid || !bytes.Equal(body, reused) {
			t.Fatalf("fresh read (%d, %q, %v), read into a used buffer (%d, %q, %v)", sid, body, err, rsid, reused, rerr)
		}
		if err != nil {
			return
		}
		if len(body) > chunk {
			t.Fatalf("accepted a %d-byte body", len(body))
		}
		var again bytes.Buffer
		writePoll(&again, &wbuf, sid, body)
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%d, %q) does not re-encode to the input", sid, body)
		}
	})
}

// FuzzReadReply is FuzzReadPoll for the response frame.
func FuzzReadReply(f *testing.F) {
	var seed bytes.Buffer
	var wbuf []byte
	writeReply(&seed, &wbuf, statusOK, []byte("chunk"))
	f.Add(seed.Bytes())
	f.Add([]byte{statusGone, 0, 0, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff})
	f.Add(append([]byte{0, 0, 1, 0, 1}, make([]byte, chunk+1)...)) // one byte over chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		status, body, err := readReply(bytes.NewReader(data), new([]byte))
		rstatus, reused, rerr := readReply(bytes.NewReader(data), used())
		if (err == nil) != (rerr == nil) || status != rstatus || !bytes.Equal(body, reused) {
			t.Fatalf("fresh read (%d, %q, %v), read into a used buffer (%d, %q, %v)", status, body, err, rstatus, reused, rerr)
		}
		if err != nil {
			return
		}
		if len(body) > chunk {
			t.Fatalf("accepted a %d-byte body", len(body))
		}
		var again bytes.Buffer
		writeReply(&again, &wbuf, status, body)
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%d, %q) does not re-encode to the input", status, body)
		}
	})
}
