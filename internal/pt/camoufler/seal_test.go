package camoufler

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// writeMessageAlloc is writeMessage as it was while every message had a
// buffer of its own: the reference the kept buffer is held to.
func writeMessageAlloc(w *bytes.Buffer, to string, seq uint64, payload []byte) {
	buf := make([]byte, 2+1+len(to)+8+len(payload))
	binary.BigEndian.PutUint16(buf, uint16(1+len(to)+8+len(payload)))
	buf[2] = byte(len(to))
	copy(buf[3:], to)
	binary.BigEndian.PutUint64(buf[3+len(to):], seq)
	copy(buf[3+len(to)+8:], payload)
	w.Write(buf)
}

// TestSealMatchesAllocatingSeal: 1 000 messages of drawn sizes framed in
// one buffer that starts full of 0xAA are byte for byte what the
// allocating framer wrote, and read back, into one buffer, as sent.
func TestSealMatchesAllocatingSeal(t *testing.T) {
	sizes := sim.NewRand(9)
	wbuf, rbuf := bytes.Repeat([]byte{0xAA}, 2*DefaultMessageCap), bytes.Repeat([]byte{0xAA}, 64)
	payload := make([]byte, 4*DefaultMessageCap)
	accounts := []string{"", "acct-p1", "acct-c12345678"}
	for i := 0; i < 1000; i++ {
		p := payload[:sizes.Intn(len(payload)+1)]
		pt.RandFill(sizes, p)
		to, seq := accounts[i%len(accounts)], sizes.Uint64()

		var got, want bytes.Buffer
		if err := writeMessage(&got, &wbuf, to, seq, p); err != nil {
			t.Fatal(err)
		}
		writeMessageAlloc(&want, to, seq, p)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("message %d of %d bytes: the frames differ", i, len(p))
		}
		rto, rseq, rp, err := readMessage(&got, &rbuf)
		if err != nil || string(rto) != to || rseq != seq || !bytes.Equal(rp, p) {
			t.Fatalf("message %d does not read back: %v", i, err)
		}
	}
}

// TestWriteMessageRefusesOversize: a frame whose length does not fit its
// 16-bit field is refused, with nothing written, where it used to wrap
// and desynchronise the stream; the largest that fits reads back; and no
// MessageCap a config can carry makes an imConn build one that does not.
func TestWriteMessageRefusesOversize(t *testing.T) {
	const to = "acct-p1"
	var wire bytes.Buffer
	var wbuf, rbuf []byte
	fits := make([]byte, math.MaxUint16-1-len(to)-8)
	if err := writeMessage(&wire, &wbuf, to, 1, append(fits, 0)); err == nil || wire.Len() != 0 {
		t.Fatalf("a frame one byte too long: %v, %d bytes written", err, wire.Len())
	}
	if err := writeMessage(&wire, &wbuf, to, 1, fits); err != nil {
		t.Fatal(err)
	}
	if _, _, payload, err := readMessage(&wire, &rbuf); err != nil || len(payload) != len(fits) || wire.Len() != 0 {
		t.Fatalf("the largest frame read back as %d bytes, %v, %d left", len(payload), err, wire.Len())
	}
	for _, capBytes := range []int{math.MaxUint16, 1 << 20, math.MaxInt} {
		c := Config{MessageCap: capBytes}.withDefaults()
		account := string(make([]byte, 255))
		if err := writeMessage(&wire, &wbuf, account, 1, make([]byte, c.MessageCap)); err != nil {
			t.Errorf("MessageCap %d became %d, which does not fit a frame: %v", capBytes, c.MessageCap, err)
		}
	}
}
