package meek

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

// readPoll, readReply and readBody are the blocking loop readers the
// hops read their frames with before they ran on pt.FrameConn, kept as
// the references cutPoll and cutReply are held to. Each reads one frame
// into *buf's array, grown if it is too small.
func readPoll(r io.Reader, buf *[]byte) (uint64, []byte, error) {
	head := slices.Grow((*buf)[:0], 12)[:12]
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, err
	}
	sid := binary.BigEndian.Uint64(head)
	body, err := readBody(r, buf, binary.BigEndian.Uint32(head[8:]))
	return sid, body, err
}

func readReply(r io.Reader, buf *[]byte) (byte, []byte, error) {
	head := slices.Grow((*buf)[:0], 5)[:5]
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, err
	}
	status := head[0]
	body, err := readBody(r, buf, binary.BigEndian.Uint32(head[1:]))
	return status, body, err
}

// readBody reads the n bytes a header announced over that header.
func readBody(r io.Reader, buf *[]byte, n uint32) ([]byte, error) {
	if n > chunk {
		return nil, errors.New("meek: oversized frame")
	}
	*buf = slices.Grow((*buf)[:0], int(n))[:n]
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, err
	}
	return *buf, nil
}

// used is a buffer that held another frame.
func used() *[]byte { b := bytes.Repeat([]byte{0xa5}, 300); return &b }

// checkCut holds a cutter to what its reference read off data: the
// reference read read bytes, returned frame as what a writer would have
// sent, or failed with err. The cutter must cut exactly that frame and
// leave the rest uncut, refuse what the reference refused (an oversized
// length), and ask for more bytes where the reference ran out of them.
func checkCut(t *testing.T, cut func([]byte) (int, int, error), data []byte, read int, frame []byte, err error) {
	t.Helper()
	body, end, cerr := cut(data)
	switch {
	case err == nil:
		if cerr != nil || body != 0 || end != read || !bytes.Equal(data[:end], frame) {
			t.Fatalf("the reference read %d bytes, the cutter cut [%d:%d] (%v)", read, body, end, cerr)
		}
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		if cerr != nil || end != 0 {
			t.Fatalf("the reference ran out of bytes (%v), the cutter cut %d (%v)", err, end, cerr)
		}
	default:
		if cerr == nil {
			t.Fatalf("the reference refused the frame (%v), the cutter cut %d", err, end)
		}
	}
}

// FuzzReadPoll: whatever the front or a client sends, readPoll either
// rejects it or returns exactly what appendFrame would have encoded,
// never a body longer than chunk, and a read into a buffer that held
// another frame returns what a read into a fresh one does; cutPoll cuts
// the frame readPoll read, refuses what it refuses and leaves the rest.
func FuzzReadPoll(f *testing.F) {
	f.Add(appendFrame(nil, binary.BigEndian.AppendUint64(nil, 7), []byte("body")))
	f.Add(append(appendFrame(nil, make([]byte, 8), []byte("one")), 0, 0, 0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}) // a head one byte short
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 'x'})
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0}, make([]byte, chunk)...))   // chunk exactly
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1}, make([]byte, chunk+1)...)) // one byte over chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		sid, body, err := readPoll(r, new([]byte))
		rsid, reused, rerr := readPoll(bytes.NewReader(data), used())
		if (err == nil) != (rerr == nil) || sid != rsid || !bytes.Equal(body, reused) {
			t.Fatalf("fresh read (%d, %q, %v), read into a used buffer (%d, %q, %v)", sid, body, err, rsid, reused, rerr)
		}
		if err == nil && len(body) > chunk {
			t.Fatalf("accepted a %d-byte body", len(body))
		}
		frame := appendFrame(nil, binary.BigEndian.AppendUint64(nil, sid), body)
		checkCut(t, cutPoll, data, len(data)-r.Len(), frame, err)
	})
}

// FuzzReadReply is FuzzReadPoll for the response frame.
func FuzzReadReply(f *testing.F) {
	f.Add(appendFrame(nil, []byte{statusOK}, []byte("chunk")))
	f.Add(append(appendFrame(nil, []byte{statusOK}, []byte("one")), statusOK, 0))
	f.Add([]byte{statusGone, 0, 0, 0, 0})
	f.Add([]byte{statusOK, 0, 0, 0}) // a head one byte short
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff})
	f.Add(append([]byte{0, 0, 1, 0, 0}, make([]byte, chunk)...))   // chunk exactly
	f.Add(append([]byte{0, 0, 1, 0, 1}, make([]byte, chunk+1)...)) // one byte over chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		status, body, err := readReply(r, new([]byte))
		rstatus, reused, rerr := readReply(bytes.NewReader(data), used())
		if (err == nil) != (rerr == nil) || status != rstatus || !bytes.Equal(body, reused) {
			t.Fatalf("fresh read (%d, %q, %v), read into a used buffer (%d, %q, %v)", status, body, err, rstatus, reused, rerr)
		}
		if err == nil && len(body) > chunk {
			t.Fatalf("accepted a %d-byte body", len(body))
		}
		checkCut(t, cutReply, data, len(data)-r.Len(), appendFrame(nil, []byte{status}, body), err)
	})
}
