package pt_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// waitingWire is an inner conn over fixed wire bytes, read as a
// RecordConn reads it, with the threshold read. That now and then waits
// partway, as a netem conn with nothing more arrived does: it returns
// done false with what it took, and its again runs a millisecond later.
// Each turn takes a random cut of the wire; the end of the wire is
// io.EOF.
type waitingWire struct {
	netem.Stream
	wire   []byte
	clock  *netem.Clock
	rng    *rand.Rand
	waited bool
}

// wait reports whether a read waits here, and if so runs again a
// millisecond later.
func (w *waitingWire) wait(again func()) bool {
	if w.waited || w.rng.Intn(3) != 0 {
		w.waited = false
		return false
	}
	w.waited = true
	w.clock.EventAt(w.clock.Now()+time.Millisecond, again)
	return true
}

// take moves a random cut of the wire, at most len(p), into p.
func (w *waitingWire) take(p []byte) int {
	n := copy(p[:min(len(p), 1+w.rng.Intn(3000))], w.wire)
	w.wire = w.wire[n:]
	return n
}

func (w *waitingWire) ReadFullEvent(p []byte, again func()) (int, error, bool) {
	n := 0
	for n < len(p) {
		if w.wait(again) {
			return n, nil, false
		}
		if len(w.wire) == 0 {
			return n, io.EOF, true
		}
		n += w.take(p[n:])
	}
	return n, nil, true
}

// TestRecordConnReadFullEvent: random payloads, written through a
// RecordConn in random cuts with padding and read back by another behind
// a flight it skips, come out of the reader's threshold read as
// io.ReadFull over its Read gives them, over an inner conn whose reads
// wait partway. A wire that ends at a record boundary returns the
// count with io.EOF, one that ends inside a record, just past its
// header too, io.ErrUnexpectedEOF.
func TestRecordConnReadFullEvent(t *testing.T) {
	rng := sim.NewRand(8)
	clock := netem.NewClock()
	defer clock.Shutdown()
	for i := 0; i < 200; i++ {
		cfg := pt.RecordConfig{MaxPadding: rng.Intn(65), Seed: int64(i)}
		if rng.Intn(2) == 0 {
			cfg.Header = []byte{0x17, 0x03, 0x03}
		}
		skip := rng.Intn(300)
		out := &bufConn{}
		out.buf.Write(bytes.Repeat([]byte{0xee}, skip))
		w, _ := pt.NewRecordConn(out, cfg)
		// Each cut is one record: ends[k] is where the k-th ends on the
		// wire, and payload[:sent[k]] what the records up to it carry.
		ends, sent := []int{skip}, []int{0}
		var payload []byte
		for k := rng.Intn(12); k > 0; k-- {
			size := pt.MaxRecord
			if rng.Intn(2) == 0 {
				size = 600
			}
			p := make([]byte, 1+rng.Intn(size))
			rng.Read(p)
			w.Write(p)
			payload = append(payload, p...)
			ends, sent = append(ends, out.buf.Len()), append(sent, len(payload))
		}
		wire := out.buf.Bytes()
		k := rng.Intn(len(ends))
		cut, atBoundary := ends[k], true
		if k+1 < len(ends) && rng.Intn(2) == 0 {
			// Inside the next record, now and then just past its header.
			cut, atBoundary = ends[k]+1+rng.Intn(ends[k+1]-ends[k]-1), false
			if rng.Intn(4) == 0 {
				cut = ends[k] + len(cfg.Header) + 4
			}
		}
		wantErr := io.EOF
		if !atBoundary {
			wantErr = io.ErrUnexpectedEOF
		}

		ref := &bufConn{}
		ref.buf.Write(wire[:cut])
		plain := pt.NewCodecConn(ref, pt.NewRecordCodec(cfg))
		rc := pt.NewCodecConn(&waitingWire{wire: wire[:cut], clock: clock, rng: rng}, pt.NewRecordCodec(cfg))
		for _, r := range []*pt.RecordConn{plain, rc} {
			r.SkipFirst(skip)
		}
		var got []byte
		for {
			want := make([]byte, 1+rng.Intn(40000))
			p := make([]byte, len(want))
			wn, werr := io.ReadFull(plain, want)
			if werr == io.ErrUnexpectedEOF && atBoundary {
				werr = io.EOF // a threshold read's short count comes with io.EOF
			}
			n, err := readFull(clock, rc, p)
			if n != wn || err != werr || !bytes.Equal(p[:n], want[:wn]) {
				t.Fatalf("case %d: ReadFullEvent of %d read %d, %v; io.ReadFull over Read %d, %v (same bytes: %v)",
					i, len(p), n, err, wn, werr, bytes.Equal(p[:n], want[:wn]))
			}
			got = append(got, p[:n]...)
			if err != nil {
				if err != wantErr {
					t.Fatalf("case %d: a wire cut at a record boundary (%v) ends with %v, want %v", i, atBoundary, err, wantErr)
				}
				break
			}
		}
		if !bytes.Equal(got, payload[:sent[k]]) {
			t.Fatalf("case %d: read %d payload bytes, want the %d of the records before the cut", i, len(got), sent[k])
		}
	}
}

// TestRecordConnReadResumesAfterTimeout: a read that times out halfway
// through a record's body keeps the bytes it took, and the next read
// carries on with the same record, as a netem conn's reads do, instead
// of reading body bytes as the next header.
func TestRecordConnReadResumesAfterTimeout(t *testing.T) {
	clock := netem.NewClock()
	defer clock.Shutdown()
	cfg := pt.RecordConfig{Header: []byte{0x17, 0x03, 0x03}, MaxPadding: 16, Seed: 1}
	out := &bufConn{}
	w, _ := pt.NewRecordConn(out, cfg)
	payload := bytes.Repeat([]byte{0xab}, 800)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	wire := out.buf.Bytes()
	half := len(cfg.Header) + 4 + len(payload)/2 // the header and half the body

	inner := pt.NewStream(clock, "test", "a", "b", 0)
	rc := pt.NewCodecConn(inner, pt.NewRecordCodec(cfg))
	inner.Deliver(wire[:half])
	rc.SetReadTimeout(10 * time.Millisecond)
	got := make([]byte, len(payload))
	if n, err := rc.Read(got); n != 0 || err != netem.ErrTimeout {
		t.Fatalf("a read halfway through the body = (%d, %v), want (0, %v)", n, err, netem.ErrTimeout)
	}
	inner.Deliver(wire[half:])
	rc.SetReadTimeout(netem.NoTimeout)
	if n, err := io.ReadFull(rc, got); n != len(payload) || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("the read after the timeout = (%d, %v), same bytes %v; want the %d-byte record whole", n, err, bytes.Equal(got[:n], payload[:n]), len(payload))
	}
}
