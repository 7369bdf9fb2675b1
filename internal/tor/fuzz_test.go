package tor

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzCellDecode: whatever arrives on a link, Decode takes exactly one
// CellSize cell or refuses, and a decoded cell encodes back to the bytes
// it came from.
func FuzzCellDecode(f *testing.F) {
	relay := Cell{CircID: 0x80000001, Cmd: CmdRelay}
	for i := range relay.Payload {
		relay.Payload[i] = byte(i)
	}
	f.Add(relay.Encode(nil))
	f.Add((&Cell{CircID: 1, Cmd: CmdDestroy}).Encode(nil))
	f.Add(append((&Cell{Cmd: CmdCreate}).Encode(nil), 0xff)) // one byte too many
	f.Add(make([]byte, CellSize-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Cell
		if err := c.Decode(data); (err == nil) != (len(data) == CellSize) {
			t.Fatalf("Decode of %d bytes: %v", len(data), err)
		} else if err == nil && !bytes.Equal(c.Encode(nil), data) {
			t.Fatal("Decode then Encode is not the input")
		}
	})
}

// FuzzParseRelayView: a payload of any content parses to a view inside
// the payload exactly when its declared length fits, and what parses
// marshals back to the same header and data (tag, digest and padding
// are not the parser's).
func FuzzParseRelayView(f *testing.F) {
	seed := func(rc RelayCell) []byte {
		p, err := marshalRelay(&rc)
		if err != nil {
			f.Fatal(err)
		}
		return p[:]
	}
	f.Add(seed(RelayCell{Cmd: RelayBegin, StreamID: 3, Data: []byte("web:80")}))
	f.Add(seed(RelayCell{Cmd: RelayData, StreamID: 0xffff, Data: make([]byte, MaxRelayData)}))
	f.Add(seed(RelayCell{Cmd: RelaySendme}))
	tooLong := seed(RelayCell{Cmd: RelayData})
	binary.BigEndian.PutUint16(tooLong[9:11], MaxRelayData+1)
	f.Add(tooLong)
	tagged := seed(RelayCell{Cmd: RelayData, Data: []byte("x")})
	tagged[1], tagged[2] = 0xa5, 1
	f.Add(tagged)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The callers hand parseRelayView a cell's payload, always
		// PayloadSize bytes: short input is padded, long input cut.
		var p [PayloadSize]byte
		copy(p[:], data)
		rc, ok := parseRelayView(p[:])
		declared := int(binary.BigEndian.Uint16(p[9:11]))
		if ok != (declared <= MaxRelayData) {
			t.Fatalf("parsed = %v with a declared length of %d", ok, declared)
		}
		if !ok {
			return
		}
		if len(rc.Data) != declared || !bytes.Equal(rc.Data, p[relayHeaderSize:relayHeaderSize+declared]) {
			t.Fatalf("view of %d bytes for a declared length of %d", len(rc.Data), declared)
		}
		again, err := marshalRelay(&rc)
		if err != nil {
			t.Fatalf("a parsed cell does not marshal: %v", err)
		}
		back, ok := parseRelayView(again[:])
		if !ok || back.Cmd != rc.Cmd || back.StreamID != rc.StreamID || !bytes.Equal(back.Data, rc.Data) {
			t.Fatalf("round trip gave %+v, want %+v", back, rc)
		}
		// The tag and the digest are the crypto layer's fields.
		p[1], p[2] = 0, 0
		copy(p[5:9], []byte{0, 0, 0, 0})
		if !bytes.Equal(again[:relayHeaderSize+declared], p[:relayHeaderSize+declared]) {
			t.Fatal("marshalled header and data differ from the input's")
		}
	})
}
