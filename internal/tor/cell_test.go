package tor

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
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
	// The client seals forward; the relay recognizes it: same tag and key.
	rc := RelayCell{Cmd: RelayData, StreamID: 7, Data: []byte("onion payload")}
	p, _ := marshalRelay(&rc)
	ka.sealForward(p[:])
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

// TestHandshakeKeysDistinct: every exchange gives its hop its own tags
// and keys, and one hop's two directions differ.
func TestHandshakeKeysDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k1, _ := handshakePair(t, rng)
	k2, _ := handshakePair(t, rng)
	if k1.fwd.sum == k2.fwd.sum || k1.bwd.sum == k2.bwd.sum || k1.fwd.tag == k2.fwd.tag {
		t.Fatalf("two exchanges repeat a tag or key: %+v %+v", k1, k2)
	}
	if k1.fwd.sum == k1.bwd.sum || k1.fwd.tag == k1.bwd.tag {
		t.Fatalf("one hop's directions share a tag or key: %+v", k1)
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

// TestDeriveHopPinned holds the expansion's tags and keys, so that a
// change to it is a decision rather than drift, and checks that every
// word of the secret reaches them.
func TestDeriveHopPinned(t *testing.T) {
	var secret [2 * HandshakeLen]byte
	for i := range secret {
		secret[i] = 7
	}
	h := deriveHop(&secret)
	want := hopCrypto{
		fwd: hopDir{tag: 0x69e3, sum: pt.KeyTag(0x6427b6f3)},
		bwd: hopDir{tag: 0x2276, sum: pt.KeyTag(0x00723357)},
	}
	if *h != want {
		t.Fatalf("tags and keys\n got %x\nwant %x", *h, want)
	}
	for i := 0; i < len(secret); i += 8 {
		secret[i] ^= 1
		if g := deriveHop(&secret); g.fwd == h.fwd || g.bwd == h.bwd {
			t.Errorf("secret word %d does not reach the tags and keys", i/8)
		}
		secret[i] ^= 1
	}
}

// sealed marshals a DATA cell and seals it with seal.
func sealed(seal func([]byte), data string) [PayloadSize]byte {
	p, _ := marshalRelay(&RelayCell{Cmd: RelayData, StreamID: 1, Data: []byte(data)})
	seal(p[:])
	return p
}

// TestDigestCountersDetectReplay: a replayed cell, or one that arrives
// before the cell sealed ahead of it, is refused, and a refusal does not
// move the counter.
func TestDigestCountersDetectReplay(t *testing.T) {
	ka, kb := handshakePair(t, rand.New(rand.NewSource(2)))

	p1 := sealed(ka.sealForward, "cell-1")
	replay := p1
	if !kb.checkForward(p1[:]) {
		t.Fatal("first cell should verify")
	}
	// The same sealed payload replayed must fail: the counter moved on.
	if kb.checkForward(replay[:]) {
		t.Fatal("replayed cell must not verify")
	}
	p2, p3 := sealed(ka.sealForward, "cell-2"), sealed(ka.sealForward, "cell-3")
	if kb.checkForward(p3[:]) {
		t.Fatal("a cell that overtook the one before it must not verify")
	}
	if !kb.checkForward(p2[:]) || !kb.checkForward(p3[:]) {
		t.Fatal("the pair in order should verify after the refusal")
	}
}

// TestCellHandledOnlyAtItsHop: a cell the client seals for hop i of a
// three-hop circuit is recognized at i and nowhere else, and a cell hop
// i seals back is recognized by the client as i's alone. With the tags
// of all three hops forced equal, the digest still tells them apart.
func TestCellHandledOnlyAtItsHop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sameTags := range []bool{false, true} {
		for target := 0; target < 3; target++ {
			var client, relays [3]*hopCrypto
			for i := range client {
				client[i], relays[i] = handshakePair(t, rng)
				if sameTags {
					client[i].fwd.tag, relays[i].fwd.tag = 0x5a5a, 0x5a5a
					client[i].bwd.tag, relays[i].bwd.tag = 0xa5a5, 0xa5a5
				}
			}
			p := sealed(client[target].sealForward, "web:80")
			for i, hop := range relays {
				if got := hop.checkForward(p[:]); got != (i == target) {
					t.Errorf("same tags %v: a forward cell for hop %d recognized at hop %d: %v", sameTags, target, i, got)
				}
			}
			p = sealed(relays[target].sealBackward, "web:80")
			for i, hop := range client {
				if got := hop.checkBackward(p[:]); got != (i == target) {
					t.Errorf("same tags %v: a backward cell from hop %d recognized as hop %d's: %v", sameTags, target, i, got)
				}
			}
		}
	}
}

// TestCorruptCellRefused: every single-bit flip of a sealed payload, in
// the header, the digest, the data or the padding, is refused.
func TestCorruptCellRefused(t *testing.T) {
	ka, kb := handshakePair(t, rand.New(rand.NewSource(4)))
	p := sealed(ka.sealForward, "payload")
	for bit := 0; bit < PayloadSize*8; bit++ {
		q := p
		q[bit/8] ^= 1 << (bit % 8)
		if kb.checkForward(q[:]) {
			t.Fatalf("a flip of bit %d was recognized", bit)
		}
	}
	if !kb.checkForward(p[:]) {
		t.Fatal("the intact cell should verify after the corrupt ones")
	}
}

// TestMisdeliveredCellRefused: a cell sealed for a hop of circuit A is
// refused by a hop of circuit B in either direction, even when the two
// hops share a tag and a counter.
func TestMisdeliveredCellRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	clientA, relayA := handshakePair(t, rng)
	clientB, relayB := handshakePair(t, rng)
	relayB.fwd.tag, clientB.bwd.tag = clientA.fwd.tag, relayA.bwd.tag
	if p := sealed(clientA.sealForward, "for A"); relayB.checkForward(p[:]) {
		t.Fatal("a forward cell of circuit A was recognized on circuit B")
	}
	if p := sealed(relayA.sealBackward, "for A"); clientB.checkBackward(p[:]) {
		t.Fatal("a backward cell of circuit A was recognized on circuit B")
	}
}

// TestSealCheckAllocFree: sealing and recognizing a cell allocates
// nothing. The counter's bytes live in the hop state because an array on
// the stack escapes through crc32.Update, one allocation per digest.
func TestSealCheckAllocFree(t *testing.T) {
	ka, kb := handshakePair(t, rand.New(rand.NewSource(9)))
	var p [PayloadSize]byte
	allocs := testing.AllocsPerRun(100, func() {
		ka.sealForward(p[:])
		if !kb.checkForward(p[:]) {
			t.Fatal("digest mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("seal and check allocate %v times per cell", allocs)
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
// from framing: the digest, sealed by the sender and checked by the hop.
func BenchmarkCellCrypto(b *testing.B) {
	b.Run("sealAndCheckForward", func(b *testing.B) {
		var secret [2 * HandshakeLen]byte
		sender, hop := deriveHop(&secret), deriveHop(&secret)
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
	clock := netem.NewClock()
	var stage, got []byte
	for _, cut := range []int{1, CellSize - 1, 2*CellSize + 7, CellSize, CellSize - 7} {
		_, lease := getCellBuf(clock)
		restage(clock, &stage, wire[:cut], lease, cellBufs.Token(), func(buf []byte, base *[]byte, pool *sync.Pool) {
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
	if out := cellBufs.Out(clock); out != 0 {
		t.Fatalf("%d cell leases restage took in are still out", out)
	}
}
