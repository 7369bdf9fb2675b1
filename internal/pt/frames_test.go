package pt_test

import (
	"errors"
	"io"
	"slices"
	"testing"

	"ptperf/internal/pt"
)

// TestFrameConnHandsOnlyAwaitedFrames: frames that arrive in one segment
// go to the handler one per Await, and the handler's own Await takes
// effect when it returns; a frame nobody awaits waits in the endpoint
// until somebody does; stop runs once, when an awaited frame cannot come,
// and not while the stream has only ended behind frames still waiting.
func TestFrameConnHandsOnlyAwaitedFrames(t *testing.T) {
	var got []string
	stops := 0
	var in *pt.FrameConn
	in = pt.NewFrameConn(pt.Prefix16, func(body []byte) {
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
		wire = pt.AppendPrefix16(wire, nil, []byte(f))
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
	in := pt.NewFrameConn(func([]byte) (int, int, error) { return 0, 0, errors.New("no frame") },
		func([]byte) { t.Fatal("a frame was handed out of bytes that do not cut") }, func() { stops++ })
	in.Await()
	in.Sink([]byte("garbage"), nil, nil, nil)
	in.Sink([]byte("more"), nil, nil, nil)
	in.Sink(nil, nil, nil, io.EOF)
	if stops != 1 {
		t.Fatalf("stopped %d times, want once", stops)
	}
}
