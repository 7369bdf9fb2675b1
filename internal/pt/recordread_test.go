package pt_test

import (
	"bytes"
	"io"
	"testing"

	"ptperf/internal/pt"
	"ptperf/internal/sim"
	"ptperf/internal/testkit/streamtest"
)

// TestRecordConnReadFullEvent: random payloads, written through a
// RecordConn in random cuts with padding behind a flight the reader
// skips, come out of the reader's threshold reads over a wire cut where
// no conn pair cuts one: at a record boundary with io.EOF, inside a
// record, just past its header too, with io.ErrUnexpectedEOF. The stream
// contract (TestStreamContractRecordConn) holds the rest of its reads.
func TestRecordConnReadFullEvent(t *testing.T) {
	rng := sim.NewRand(8)
	for i := 0; i < 200; i++ {
		cfg := pt.RecordConfig{MaxPadding: rng.Intn(65), Seed: int64(i)}
		if rng.Intn(2) == 0 {
			cfg.Header = []byte{0x17, 0x03, 0x03}
		}
		skip := rng.Intn(300)
		wire := bytes.NewBuffer(make([]byte, skip))
		w, _ := pt.NewRecordConn(streamtest.Plain(wire), cfg)
		// ends[k] is where the k-th record ends on the wire, and
		// payload[:sent[k]] what the records up to it carry.
		ends, sent := []int{skip}, []int{0}
		var payload []byte
		for k := rng.Intn(12); k > 0; k-- {
			p := make([]byte, 1+rng.Intn([]int{600, pt.MaxRecord}[rng.Intn(2)]))
			rng.Read(p)
			w.Write(p)
			payload = append(payload, p...)
			ends, sent = append(ends, wire.Len()), append(sent, len(payload))
		}
		k := rng.Intn(len(ends))
		cut, wantErr := ends[k], io.EOF
		if k+1 < len(ends) && rng.Intn(2) == 0 {
			cut, wantErr = ends[k]+1+rng.Intn(ends[k+1]-ends[k]-1), io.ErrUnexpectedEOF
			if rng.Intn(4) == 0 {
				cut = ends[k] + len(cfg.Header) + 4
			}
		}
		rc := pt.NewCodecConn(streamtest.Plain(bytes.NewBuffer(wire.Bytes()[:cut])), pt.NewRecordCodec(cfg))
		rc.SkipFirst(skip)
		var got []byte
		for err := error(nil); err == nil; {
			p := make([]byte, 1+rng.Intn(40000))
			var n int
			n, err, _ = rc.ReadFullEvent(p, nil)
			if got = append(got, p[:n]...); err == nil && n != len(p) || err != nil && (err != wantErr || n == len(p)) {
				t.Fatalf("case %d: a threshold read of %d returned %d, %v; the wire ends with %v", i, len(p), n, err, wantErr)
			}
		}
		if !bytes.Equal(got, payload[:sent[k]]) {
			t.Fatalf("case %d: read %d payload bytes, want the %d of the records before the cut", i, len(got), sent[k])
		}
	}
}
