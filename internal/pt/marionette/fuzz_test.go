package marionette

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame: readFrame either rejects the bytes or returns exactly
// the frame writeFrame (or writeFin) would have encoded.
func FuzzReadFrame(f *testing.F) {
	var data, fin bytes.Buffer
	writeFrame(&data, "APPE upload.jpg\r\n", []byte("payload"))
	writeFin(&fin)
	f.Add(data.Bytes())
	f.Add(fin.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 2, 'h', 'i', 0, 9, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		cover, payload, fin, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if fin {
			if payload != nil {
				t.Fatal("a FIN frame carries no payload")
			}
			again.Write(binary.BigEndian.AppendUint16(nil, uint16(len(cover))))
			again.WriteString(cover)
			again.Write(binary.BigEndian.AppendUint16(nil, finLen))
		} else {
			writeFrame(&again, cover, payload)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("decoded (%q, %q, fin=%v) does not re-encode to the input", cover, payload, fin)
		}
	})
}
