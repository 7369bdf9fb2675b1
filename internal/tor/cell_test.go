package tor

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCellEncodeDecodeRoundTrip(t *testing.T) {
	f := func(circID uint32, cmd byte, payload []byte) bool {
		var c Cell
		c.CircID = circID
		c.Cmd = Command(cmd)
		copy(c.Payload[:], payload)
		wire := c.Encode(nil)
		if len(wire) != CellSize {
			return false
		}
		var d Cell
		if err := d.Decode(wire); err != nil {
			return false
		}
		return d.CircID == c.CircID && d.Cmd == c.Cmd && d.Payload == c.Payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellDecodeWrongSize(t *testing.T) {
	var c Cell
	if err := c.Decode(make([]byte, CellSize-1)); err == nil {
		t.Fatal("short buffer should fail")
	}
	if err := c.Decode(make([]byte, CellSize+1)); err == nil {
		t.Fatal("long buffer should fail")
	}
}

// marshalRelay is marshalRelayInto with a fresh payload array.
func marshalRelay(rc *RelayCell) ([PayloadSize]byte, error) {
	var p [PayloadSize]byte
	err := marshalRelayInto(p[:], rc)
	return p, err
}

func TestRelayMarshalParseRoundTrip(t *testing.T) {
	f := func(cmd byte, streamID uint16, data []byte) bool {
		if len(data) > MaxRelayData {
			data = data[:MaxRelayData]
		}
		rc := RelayCell{Cmd: RelayCommand(cmd), StreamID: streamID, Data: data}
		p, err := marshalRelay(&rc)
		if err != nil {
			return false
		}
		got, ok := parseRelayView(p[:])
		if !ok {
			return false
		}
		return got.Cmd == rc.Cmd && got.StreamID == rc.StreamID && bytes.Equal(got.Data, rc.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelayTooLong(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Data: make([]byte, MaxRelayData+1)}
	if _, err := marshalRelay(&rc); err != ErrRelayTooLong {
		t.Fatalf("want ErrRelayTooLong, got %v", err)
	}
}

func TestRelayParseRejectsRecognized(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Data: []byte("x")}
	p, _ := marshalRelay(&rc)
	p[1] = 1 // non-zero "recognized"
	if _, ok := parseRelayView(p[:]); ok {
		t.Fatal("non-zero recognized must not parse")
	}
}

func TestHandshakeDerivesSharedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := newHandshake(rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newHandshake(rng)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := a.complete(b.public())
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.complete(a.public())
	if err != nil {
		t.Fatal(err)
	}
	// Client encrypts forward; relay decrypts forward: same keystream.
	rc := RelayCell{Cmd: RelayData, StreamID: 7, Data: []byte("onion payload")}
	p, _ := marshalRelay(&rc)
	ka.sealForward(p[:])
	ka.encryptForward(p[:])
	kb.decryptForward(p[:])
	got, ok := parseRelayView(p[:])
	if !ok || !kb.checkForward(p[:]) {
		t.Fatal("relay should recognize the sealed cell")
	}
	if string(got.Data) != "onion payload" {
		t.Fatalf("data = %q", got.Data)
	}
}

func TestDigestCountersDetectReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, _ := newHandshake(rng)
	b, _ := newHandshake(rng)
	ka, _ := a.complete(b.public())
	kb, _ := b.complete(a.public())

	rc := RelayCell{Cmd: RelayData, StreamID: 1, Data: []byte("cell-1")}
	p1, _ := marshalRelay(&rc)
	ka.sealForward(p1[:])
	replay := p1 // plaintext copy before encryption
	if !kb.checkForward(p1[:]) {
		t.Fatal("first cell should verify")
	}
	// The same sealed payload replayed must fail: the counter moved on.
	if kb.checkForward(replay[:]) {
		t.Fatal("replayed cell must not verify")
	}
}

func TestOnionLayering(t *testing.T) {
	// Three hops: client encrypts exit→middle→guard; each hop peels one
	// layer; only the exit recognizes the cell.
	rng := rand.New(rand.NewSource(3))
	var client, relays []*hopCrypto
	for i := 0; i < 3; i++ {
		c, _ := newHandshake(rng)
		r, _ := newHandshake(rng)
		kc, err := c.complete(r.public())
		if err != nil {
			t.Fatal(err)
		}
		kr, err := r.complete(c.public())
		if err != nil {
			t.Fatal(err)
		}
		client = append(client, kc)
		relays = append(relays, kr)
	}
	rc := RelayCell{Cmd: RelayBegin, StreamID: 3, Data: []byte("web:80")}
	p, _ := marshalRelay(&rc)
	client[2].sealForward(p[:])
	for i := 2; i >= 0; i-- {
		client[i].encryptForward(p[:])
	}
	for i := 0; i < 2; i++ {
		relays[i].decryptForward(p[:])
		if got, ok := parseRelayView(p[:]); ok && relays[i].checkForward(p[:]) {
			t.Fatalf("hop %d should not recognize cell %+v", i, got)
		}
	}
	relays[2].decryptForward(p[:])
	got, ok := parseRelayView(p[:])
	if !ok || !relays[2].checkForward(p[:]) {
		t.Fatal("exit must recognize the cell")
	}
	if string(got.Data) != "web:80" || got.Cmd != RelayBegin {
		t.Fatalf("got %+v", got)
	}
}

func TestEncodeExtendRoundTrip(t *testing.T) {
	pub := make([]byte, HandshakeLen)
	for i := range pub {
		pub[i] = byte(i)
	}
	data := encodeExtend("relay-9:9001", pub)
	nameLen := int(data[0])
	if got := string(data[1 : 1+nameLen]); got != "relay-9:9001" {
		t.Fatalf("addr = %q", got)
	}
	if !bytes.Equal(data[1+nameLen:], pub) {
		t.Fatal("handshake mismatch")
	}
}

func TestCommandStrings(t *testing.T) {
	if CmdRelay.String() != "RELAY" || RelayBegin.String() != "BEGIN" {
		t.Fatal("stringers broken")
	}
	if Command(200).String() == "" || RelayCommand(200).String() == "" {
		t.Fatal("unknown commands need strings")
	}
}

// BenchmarkCellCrypto times what one hop costs one relay cell, apart
// from framing: the stream cipher over a PayloadSize payload, and the
// digest, sealed by the sender and checked by the hop. ROADMAP item B.4
// sizes the cipher from these.
func BenchmarkCellCrypto(b *testing.B) {
	newHop := func(b *testing.B) *hopCrypto {
		h, err := deriveHop(bytes.Repeat([]byte{7}, 32))
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	b.Run("encryptForward", func(b *testing.B) {
		h := newHop(b)
		var p [PayloadSize]byte
		b.SetBytes(PayloadSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.encryptForward(p[:])
		}
	})
	b.Run("sealAndCheckForward", func(b *testing.B) {
		sender, hop := newHop(b), newHop(b)
		var p [PayloadSize]byte
		b.SetBytes(PayloadSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sender.sealForward(p[:])
			if !hop.checkForward(p[:]) {
				b.Fatal("digest mismatch")
			}
		}
	})
}

// TestRestageReassemblesCells cuts a run of cells at boundaries that
// are not cell boundaries and checks restage hands every whole cell on,
// in order, as a view without a lease.
func TestRestageReassemblesCells(t *testing.T) {
	const cells = 5
	wire := make([]byte, cells*CellSize)
	for i := range wire {
		wire[i] = byte(i / CellSize)
	}
	var stage, got []byte
	for _, cut := range []int{1, CellSize - 1, 2*CellSize + 7, CellSize, CellSize - 7} {
		_, lease := getCellBuf()
		restage(&stage, wire[:cut], lease, &cellBufPool, func(buf []byte, base *[]byte, pool *sync.Pool) {
			if len(buf) != CellSize || base != nil || pool != nil {
				t.Fatalf("staged cell: len %d, lease %v %v", len(buf), base, pool)
			}
			got = append(got, buf[0])
		})
		wire = wire[cut:]
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4}) || stage != nil || len(wire) != 0 {
		t.Fatalf("cells %v, %d bytes left staged, %d unsent", got, len(stage), len(wire))
	}
}
