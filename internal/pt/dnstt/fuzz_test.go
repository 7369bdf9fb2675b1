package dnstt

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// readFrame reads one frame from r into buf's array, grown if it is too
// small: the plain loop decoder, kept as the reference the pipelines'
// pt.FrameConn reassembly is held to.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 2)[:2]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = slices.Grow(buf[:0], n)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// FuzzReadFrame: readFrame either rejects the bytes or returns exactly
// the frame pt.AppendPrefix16 would have encoded, and what pt.Prefix16
// cuts; a read into a buffer that held another frame returns what a read
// into a fresh one does.
func FuzzReadFrame(f *testing.F) {
	f.Add(pt.AppendPrefix16(nil, []byte("sessn-id\x00\x00\x00\x01"), []byte("payload")))
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrame(bytes.NewReader(data), nil)
		used := bytes.Repeat([]byte{0xa5}, 300)
		reused, rerr := readFrame(bytes.NewReader(data), used)
		if (err == nil) != (rerr == nil) || !bytes.Equal(frame, reused) {
			t.Fatalf("fresh read (%q, %v), read into a used buffer (%q, %v)", frame, err, reused, rerr)
		}
		body, end, cerr := pt.Prefix16(data)
		if cerr != nil || (err == nil) != (end > 0) || !bytes.Equal(frame, data[body:end]) {
			t.Fatalf("readFrame read (%q, %v), Prefix16 cut data[%d:%d] (%v)", frame, err, body, end, cerr)
		}
		if err != nil {
			return
		}
		if again := pt.AppendPrefix16(nil, nil, frame); !bytes.HasPrefix(data, again) {
			t.Fatalf("decoded %q does not re-encode to the input", frame)
		}
	})
}

// FuzzFrames: however a byte stream is split into segments (cuts gives
// the segment lengths, less one, in turn), a pipeline's pt.FrameConn hands
// its hop the frames readFrame reads from the whole stream, and stops the
// hop only once the stream has ended.
func FuzzFrames(f *testing.F) {
	var wire []byte
	wire = pt.AppendPrefix16(wire, []byte("sessn-id\x00\x00\x00\x01"), []byte("payload"))
	wire = pt.AppendPrefix16(wire, []byte{0xff, 0xff, 0xff, 0xff}, nil)
	wire = pt.AppendPrefix16(wire, nil, bytes.Repeat([]byte{7}, 300))
	f.Add(wire, []byte{4})               // every frame straddles segments
	f.Add(wire, []byte{255, 255})        // several frames in one segment
	f.Add(wire[:len(wire)-3], []byte{9}) // a truncated tail
	f.Add([]byte{0, 5}, []byte{})        // a length prefix and nothing after it
	f.Add([]byte{0}, []byte{0})          // half a length prefix
	conn := idleConn(f)
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var want [][]byte
		whole := bytes.NewReader(stream)
		var rerr error
		for {
			frame, err := readFrame(whole, nil)
			if err != nil {
				rerr = err
				break
			}
			want = append(want, frame)
		}

		// A hop that takes every frame as it arrives, as the server does.
		var got [][]byte
		stopped := false
		var in *pt.FrameConn
		in = pt.NewFrameConn(pt.Prefix16, func(frame []byte) {
			got = append(got, slices.Clone(frame))
			in.Await()
		}, func() { stopped = true })
		in.Attach(conn)
		in.Await()
		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]))
			}
			// A read sink owns the segment it is handed.
			in.Sink(slices.Clone(rest[:n]), nil, nil, nil)
			rest = rest[n:]
		}
		if stopped {
			t.Fatal("the hop stopped before the stream ended")
		}
		in.Sink(nil, nil, nil, io.EOF)
		if !stopped {
			t.Fatal("the stream ended and the hop went on awaiting a frame")
		}

		if len(got) != len(want) {
			t.Fatalf("cut %d frames, readFrame read %d before %v", len(got), len(want), rerr)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: cut %q, readFrame read %q", i, got[i], want[i])
			}
		}
	})
}

// idleConn returns a conn of a world of its own on which nothing
// arrives: a FrameConn attached to it leases from that world, and the
// test hands it segments through Sink.
func idleConn(f *testing.F) *netem.Conn {
	n := netem.New()
	f.Cleanup(n.Clock().Shutdown)
	h := n.MustAddHost(netem.HostConfig{Name: "r"})
	if _, err := h.Listen(53); err != nil {
		f.Fatal(err)
	}
	c, err := h.Dial("r:53")
	if err != nil {
		f.Fatal(err)
	}
	return c.(*netem.Conn)
}
