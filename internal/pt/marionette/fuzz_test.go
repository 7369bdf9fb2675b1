package marionette

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame: a frameReader either rejects the bytes or returns
// exactly the frame writeFrame (or writeFin) would have encoded, and one
// whose buffer held another frame returns what a fresh one does.
func FuzzReadFrame(f *testing.F) {
	var data, fin bytes.Buffer
	var wbuf []byte
	writeFrame(&data, &wbuf, "APPE upload.jpg\r\n", []byte("payload"))
	writeFin(&fin)
	f.Add(data.Bytes())
	f.Add(fin.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 2, 'h', 'i', 0, 9, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		cover, payload, fin, err := (&frameReader{r: bytes.NewReader(data)}).next()
		used := frameReader{r: bytes.NewReader(data), buf: bytes.Repeat([]byte{0xa5}, 300)}
		rcover, rpayload, rfin, rerr := used.next()
		if (err == nil) != (rerr == nil) || fin != rfin || !bytes.Equal(cover, rcover) || !bytes.Equal(payload, rpayload) {
			t.Fatalf("fresh reader (%q, %q, fin=%v, %v), used reader (%q, %q, fin=%v, %v)",
				cover, payload, fin, err, rcover, rpayload, rfin, rerr)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if fin {
			if payload != nil {
				t.Fatal("a FIN frame carries no payload")
			}
			again.Write(binary.BigEndian.AppendUint16(nil, uint16(len(cover))))
			again.Write(cover)
			again.Write(binary.BigEndian.AppendUint16(nil, finLen))
		} else {
			writeFrame(&again, &wbuf, string(cover), payload)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%q, %q, fin=%v) does not re-encode to the input", cover, payload, fin)
		}
	})
}
