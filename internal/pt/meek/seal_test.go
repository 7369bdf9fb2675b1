package meek

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// writePollAlloc and writeReplyAlloc are the two framers as they were
// while every frame had a buffer of its own: the references the kept
// buffer is held to.
func writePollAlloc(w *bytes.Buffer, sid uint64, body []byte) {
	buf := make([]byte, 12+len(body))
	binary.BigEndian.PutUint64(buf, sid)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(body)))
	copy(buf[12:], body)
	w.Write(buf)
}

func writeReplyAlloc(w *bytes.Buffer, status byte, body []byte) {
	buf := make([]byte, 5+len(body))
	buf[0] = status
	binary.BigEndian.PutUint32(buf[1:], uint32(len(body)))
	copy(buf[5:], body)
	w.Write(buf)
}

// TestSealMatchesAllocatingSeal: 1 000 polls and replies of drawn sizes
// framed in one buffer that starts full of 0xAA are byte for byte what
// the allocating framers wrote, and read back, into one buffer, as sent.
func TestSealMatchesAllocatingSeal(t *testing.T) {
	sizes := sim.NewRand(9)
	wbuf := bytes.Repeat([]byte{0xAA}, 2*chunk)
	var rbuf []byte
	body := make([]byte, chunk)
	for i := 0; i < 1000; i++ {
		b := body[:sizes.Intn(chunk+1)]
		pt.RandFill(sizes, b)
		sid, status := sizes.Uint64(), byte(sizes.Intn(2))

		var want bytes.Buffer
		wbuf = appendFrame(wbuf[:0], binary.BigEndian.AppendUint64(nil, sid), b)
		writePollAlloc(&want, sid, b)
		if !bytes.Equal(wbuf, want.Bytes()) {
			t.Fatalf("poll %d of %d bytes: the frames differ", i, len(b))
		}
		rsid, rbody, err := readPoll(bytes.NewReader(wbuf), &rbuf)
		if err != nil || rsid != sid || !bytes.Equal(rbody, b) {
			t.Fatalf("poll %d does not read back: %v", i, err)
		}

		want.Reset()
		wbuf = appendFrame(wbuf[:0], []byte{status}, b)
		writeReplyAlloc(&want, status, b)
		if !bytes.Equal(wbuf, want.Bytes()) {
			t.Fatalf("reply %d of %d bytes: the frames differ", i, len(b))
		}
		rstatus, rbody, err := readReply(bytes.NewReader(wbuf), &rbuf)
		if err != nil || rstatus != status || !bytes.Equal(rbody, b) {
			t.Fatalf("reply %d does not read back: %v", i, err)
		}
	}
}
