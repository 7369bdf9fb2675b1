package pt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"

	"ptperf/internal/netem"
)

// unattached returns an endpoint that a test feeds through Sink, leasing
// from a world of its own as an attached one leases from its conn's.
func unattached(cut FrameCut, frame func(body []byte), stop func()) *FrameConn {
	f := NewFrameConn(cut, frame, stop)
	f.clock = netem.NewClock()
	return f
}

// FuzzFrameConnLeavesTheRestUncut: however a stream is split into
// segments (cuts gives the segment lengths, less one, in turn), a
// FrameConn cutting Prefix16 frames hands out as many frames as the plain
// loop decoder reads from the whole stream, and what it then holds uncut
// is exactly the stream's rest after them, and nothing only where the
// loop decoder ends with io.EOF. Once the stream has ended, stop runs
// once and the endpoint holds nothing.
func FuzzFrameConnLeavesTheRestUncut(f *testing.F) {
	wire := AppendPrefix16(nil, []byte("head"), []byte("payload"))
	wire = AppendPrefix16(wire, nil, nil)
	wire = AppendPrefix16(wire, nil, bytes.Repeat([]byte{7}, 300))
	f.Add(wire, []byte{4})               // every frame straddles segments
	f.Add(wire, []byte{255, 255})        // several frames in one segment
	f.Add(wire[:len(wire)-3], []byte{9}) // a truncated body
	f.Add(append(wire, 1), []byte{255})  // half a length prefix behind the last frame's end
	f.Add([]byte{0, 5}, []byte{})        // a length prefix and nothing after it
	f.Add([]byte{}, []byte{})            // nothing at all
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		// The plain loop decoder: a 2-byte length, then that many bytes.
		whole := bytes.NewReader(stream)
		frames, cut := 0, 0
		var rerr error
		for {
			var n [2]byte
			if _, rerr = io.ReadFull(whole, n[:]); rerr != nil {
				break
			}
			body := make([]byte, binary.BigEndian.Uint16(n[:]))
			if _, rerr = io.ReadFull(whole, body); rerr != nil {
				break
			}
			frames++
			cut += 2 + len(body)
		}

		got, stops := 0, 0
		var in *FrameConn
		in = unattached(Prefix16, func([]byte) {
			got++
			in.Await()
		}, func() { stops++ })
		in.Await()
		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]))
			}
			in.Sink(slices.Clone(rest[:n]), nil, nil, nil)
			rest = rest[n:]
		}
		if got != frames {
			t.Fatalf("handed out %d frames, the loop decoder read %d before %v", got, frames, rerr)
		}
		left := in.buf[in.head:]
		if !bytes.Equal(left, stream[cut:]) {
			t.Fatalf("left %q uncut, the stream's rest is %q", left, stream[cut:])
		}
		if len(left) == 0 && rerr != io.EOF {
			t.Fatalf("nothing left uncut, but the loop decoder failed with %v", rerr)
		}

		in.Sink(nil, nil, nil, io.EOF)
		if stops != 1 || len(in.buf) != 0 {
			t.Fatalf("after the end of the stream: stopped %d times, holding %d bytes", stops, len(in.buf))
		}
	})
}

// TestFrameConnStoppedHoldsNothing: once the handler has stopped reading,
// what arrives is recycled, not kept, and the handler is not called
// again, awaited or not.
func TestFrameConnStoppedHoldsNothing(t *testing.T) {
	handed, stops := 0, 0
	var in *FrameConn
	in = unattached(Prefix16, func([]byte) {
		handed++
		in.Stop()
	}, func() { stops++ })
	in.Await()
	wire := AppendPrefix16(nil, nil, []byte("one"))
	wire = AppendPrefix16(wire, nil, []byte("two"))
	in.Sink(wire, nil, nil, nil)
	in.Await()
	in.Sink(AppendPrefix16(nil, nil, bytes.Repeat([]byte{1}, 1000)), nil, nil, nil)
	in.Stop()
	in.Sink(nil, nil, nil, io.EOF)
	if handed != 1 || stops != 1 || len(in.buf) != 0 {
		t.Fatalf("handed %d frames, stopped %d times and holds %d bytes, want one frame, one stop and nothing held", handed, stops, len(in.buf))
	}
}

// TestFrameConnLendsItsArray: an endpoint holds a reassembly array only
// while bytes wait uncut. A frame is handed from the array, which goes
// back once the handler has returned and every byte in it is cut, and an
// endpoint whose stream has ended holds none.
func TestFrameConnLendsItsArray(t *testing.T) {
	var frames []string
	var in *FrameConn
	in = unattached(Prefix16, func(b []byte) {
		if in.lease == nil {
			t.Fatalf("frame %q handed from no array", b)
		}
		frames = append(frames, string(b))
		in.Await()
	}, func() {})
	in.Await()
	second := AppendPrefix16(nil, nil, []byte("second"))
	in.Sink(append(AppendPrefix16(nil, nil, []byte("first")), second[:3]...), nil, nil, nil)
	if !slices.Equal(frames, []string{"first"}) || in.lease == nil {
		t.Fatalf("handed %q holding lease %v, want the first frame and an array for the second's head", frames, in.lease != nil)
	}
	in.Sink(second[3:], nil, nil, nil)
	if !slices.Equal(frames, []string{"first", "second"}) || in.lease != nil {
		t.Fatalf("handed %q holding lease %v, want the second frame and no array once it is handled", frames, in.lease != nil)
	}
	in.Sink(nil, nil, nil, io.EOF)
	if in.lease != nil || in.buf != nil {
		t.Fatal("the stream ended and the endpoint still holds its array")
	}
}

// TestFrameConnStopGivesItsArrayBack: a stopped endpoint hands its
// reassembly array back to the world, at once when Stop runs outside a
// handler and once the handler returns when Stop runs inside one, and the
// frame in the handler's hand stays readable until then.
func TestFrameConnStopGivesItsArrayBack(t *testing.T) {
	wire := append(AppendPrefix16(nil, nil, []byte("one")), AppendPrefix16(nil, nil, []byte("two"))[:3]...)
	for _, inside := range []bool{false, true} {
		var in *FrameConn
		in = unattached(Prefix16, func(b []byte) {
			if inside {
				in.Stop()
				if string(b) != "one" || frameArrays.Out(in.clock) != 1 {
					t.Errorf("stopped in the handler: frame %q with %d arrays out, want \"one\" still in its array", b, frameArrays.Out(in.clock))
				}
				return
			}
			in.Await()
		}, func() {})
		in.Await()
		in.Sink(slices.Clone(wire), nil, nil, nil)
		if !inside {
			if frameArrays.Out(in.clock) != 1 {
				t.Fatalf("%d arrays out with a frame partly in, want 1", frameArrays.Out(in.clock))
			}
			in.Stop()
		}
		if out := frameArrays.Out(in.clock); out != 0 || in.lease != nil {
			t.Errorf("stopped (inside a handler: %v): %d arrays out, want 0", inside, out)
		}
	}
}

// TestFrameConnPoisonedArray: the array a frame was handed from goes
// back to the world's frameArrays list when the handler returns.
// Overwritten there, it spoils no frame handed after it, whole or
// straddling deliveries.
func TestFrameConnPoisonedArray(t *testing.T) {
	var frames []string
	var handed []byte
	var in *FrameConn
	in = unattached(Prefix16, func(b []byte) {
		frames, handed = append(frames, string(b)), b
		in.Await()
	}, func() {})
	in.Await()
	var wire []byte
	for k := range 40 {
		wire = AppendPrefix16(wire, nil, bytes.Repeat([]byte{byte('a' + k%26)}, 1+k*7))
	}
	var want []string
	for rest := wire; len(rest) > 0; rest = rest[2+int(binary.BigEndian.Uint16(rest)):] {
		want = append(want, string(rest[2:2+int(binary.BigEndian.Uint16(rest))]))
	}
	poisoned := 0
	for rest := wire; len(rest) > 0; {
		n := min(len(rest), 1+len(rest)%97)
		in.Sink(slices.Clone(rest[:n]), nil, nil, nil)
		rest = rest[n:]
		if in.lease != nil {
			continue // a frame is partly in
		}
		b := frameArrays.Get(in.clock)
		if full := (*b)[:cap(*b)]; len(handed) > 0 && cap(full) > 0 && &full[cap(full)-1] == &handed[:cap(handed)][cap(handed)-1] {
			poisoned++
			for i := range full {
				full[i] = 0xee
			}
		}
		frameArrays.Put(in.clock, b)
	}
	if !slices.Equal(frames, want) {
		t.Fatalf("handed %.80q, want %.80q", frames, want)
	}
	if poisoned == 0 {
		t.Fatal("no handed frame's array was back in frameArrays once its handler returned")
	}
}

// TestFrameConnHandsOnlyAwaitedFrames: frames that arrive in one segment
// go to the handler one per Await, and the handler's own Await takes
// effect when it returns; a frame nobody awaits waits in the endpoint
// until somebody does; stop runs once, when an awaited frame cannot come,
// and not while the stream has only ended behind frames still waiting.
func TestFrameConnHandsOnlyAwaitedFrames(t *testing.T) {
	var got []string
	stops := 0
	var in *FrameConn
	in = unattached(Prefix16, func(body []byte) {
		got = append(got, string(body))
		if string(body) != "two" {
			in.Await()
		}
		if len(got) > 3 {
			t.Fatal("the handler was entered again before it returned")
		}
	}, func() { stops++ })
	in.Await()
	var wire []byte
	for _, f := range []string{"one", "two", "three"} {
		wire = AppendPrefix16(wire, nil, []byte(f))
	}
	in.Sink(wire[:4], nil, nil, nil)
	if len(got) != 0 {
		t.Fatalf("handed %q before its last byte arrived", got)
	}
	in.Sink(wire[4:], nil, nil, nil)
	in.Sink(nil, nil, nil, io.EOF)
	if want := []string{"one", "two"}; !slices.Equal(got, want) || stops != 0 {
		t.Fatalf("handed %q and stopped %d times, want %q and no stop: the handler did not await after \"two\"", got, stops, want)
	}
	in.Await()
	if want := []string{"one", "two", "three"}; !slices.Equal(got, want) || stops != 1 {
		t.Fatalf("handed %q and stopped %d times after a late Await, want %q and one stop", got, stops, want)
	}
}

// TestFrameConnStopsOnBytesThatDoNotCut: a cut error stops the endpoint
// once, like the end of the stream.
func TestFrameConnStopsOnBytesThatDoNotCut(t *testing.T) {
	stops := 0
	in := unattached(func([]byte) (int, int, error) { return 0, 0, errors.New("no frame") },
		func([]byte) { t.Fatal("a frame was handed out of bytes that do not cut") }, func() { stops++ })
	in.Await()
	in.Sink([]byte("garbage"), nil, nil, nil)
	in.Sink([]byte("more"), nil, nil, nil)
	in.Sink(nil, nil, nil, io.EOF)
	if stops != 1 {
		t.Fatalf("stopped %d times, want once", stops)
	}
}
