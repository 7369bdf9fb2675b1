package tor

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"ptperf/internal/sim"
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

// handshakePair runs one exchange on rng: the initiator's and the
// responder's view of the hop keys.
func handshakePair(t *testing.T, rng *rand.Rand) (initiator, responder *hopCrypto) {
	t.Helper()
	a, b := newHandshake(rng), newHandshake(rng)
	ka, err := a.complete(b[:])
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.complete(a[:])
	if err != nil {
		t.Fatal(err)
	}
	return ka, kb
}

func TestHandshakeDerivesSharedKeys(t *testing.T) {
	ka, kb := handshakePair(t, rand.New(rand.NewSource(1)))
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

// TestHandshakeDrawsPinned holds the one property of the handshake a
// report depends on: newHandshake takes exactly HandshakeLen Intn(256)
// draws from its caller's stream, which also picks circuit IDs and
// paths. A draw more or fewer shifts every later choice of the world.
func TestHandshakeDrawsPinned(t *testing.T) {
	for _, seed := range []int64{1, 7, 1 << 40} {
		rng, ref := sim.NewRand(seed), sim.NewRand(seed)
		hs := newHandshake(rng)
		var want [HandshakeLen]byte
		for i := range want {
			want[i] = byte(ref.Intn(256))
		}
		if !bytes.Equal(hs[:], want[:]) {
			t.Errorf("seed %d: half %x, want the first %d draws %x", seed, hs[:], HandshakeLen, want)
		}
		if got, want := rng.Int63(), ref.Int63(); got != want {
			t.Errorf("seed %d: stream after newHandshake is at %d, want %d", seed, got, want)
		}
	}
}

// TestHandshakeKeysDistinct: every exchange gives its hop its own keys,
// and one hop's two directions differ.
func TestHandshakeKeysDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := func(encrypt func([]byte)) [32]byte {
		var p [32]byte
		encrypt(p[:])
		return p
	}
	k1, _ := handshakePair(t, rng)
	k2, _ := handshakePair(t, rng)
	f1, f2 := stream(k1.encryptForward), stream(k2.encryptForward)
	if f1 == f2 {
		t.Fatal("two exchanges gave the same forward keystream")
	}
	if f1 == stream(k1.encryptBackward) {
		t.Fatal("forward and backward keystreams of one hop are equal")
	}
	if k1.fwdK0 == k2.fwdK0 || k1.fwdK0 == k1.bwdK0 {
		t.Fatal("digest keys repeat across exchanges or directions")
	}
}

func TestHandshakeRejectsWrongLength(t *testing.T) {
	hs := newHandshake(rand.New(rand.NewSource(6)))
	for _, n := range []int{0, HandshakeLen - 1, HandshakeLen + 1} {
		if _, err := hs.complete(make([]byte, n)); err == nil {
			t.Errorf("a %d-byte peer half was accepted", n)
		}
	}
}

// TestDeriveHopPinned holds the expansion's key bytes to what the
// SHA-256 counter construction gave before it lost its allocations.
func TestDeriveHopPinned(t *testing.T) {
	h := deriveHop(bytes.Repeat([]byte{7}, 32))
	var f, b [16]byte
	h.encryptForward(f[:])
	h.encryptBackward(b[:])
	got := fmt.Sprintf("%x %x %x %x %x %x", f, b, h.fwdK0, h.fwdK1, h.bwdK0, h.bwdK1)
	const want = "de7d6ac225eccc4ac7c206ac62b07390 7f93166d707bd6c33b39eada44830e62 " +
		"9760bfbf6a73eab8 4cdb97e72f6ff81 453775672522103a c995af12752e528a"
	if got != want {
		t.Fatalf("key material\n got %s\nwant %s", got, want)
	}
	// A secret longer than the stack buffer derives by the same rule.
	long := bytes.Repeat([]byte{7}, 3*HandshakeLen)
	if deriveHop(long).fwdK0 == h.fwdK0 {
		t.Fatal("a longer secret derived the same keys")
	}
}

func TestDigestCountersDetectReplay(t *testing.T) {
	ka, kb := handshakePair(t, rand.New(rand.NewSource(2)))

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
		kc, kr := handshakePair(t, rng)
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
	newHop := func() *hopCrypto { return deriveHop(bytes.Repeat([]byte{7}, 32)) }
	b.Run("encryptForward", func(b *testing.B) {
		h := newHop()
		var p [PayloadSize]byte
		b.SetBytes(PayloadSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.encryptForward(p[:])
		}
	})
	b.Run("sealAndCheckForward", func(b *testing.B) {
		sender, hop := newHop(), newHop()
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

// BenchmarkCircuitBuild times one three-hop build on a bare netem world
// of one guard, one middle and one exit: CREATE/CREATED, two
// EXTEND/EXTENDED, three key derivations on each side, and the teardown
// of the circuit before. The links cost virtual time only, so ns/op is
// what the simulator itself spends per circuit.
func BenchmarkCircuitBuild(b *testing.B) {
	w := buildWorld(b, 1, 1, 1)
	c := newTestClient(b, w, nil)
	if err := c.Preheat(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NewCircuit()
		if err := c.Preheat(); err != nil {
			b.Fatal(err)
		}
	}
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
