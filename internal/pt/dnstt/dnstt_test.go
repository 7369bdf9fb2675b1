package dnstt

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

func TestFrameRoundTrip(t *testing.T) {
	// One pair of buffers for every frame, like a poll loop's.
	var wbuf, got []byte
	f := func(head, data []byte) bool {
		if len(head)+len(data) > 60000 {
			return true
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, &wbuf, head, data); err != nil {
			return false
		}
		var err error
		if got, err = readFrame(&buf, got); err != nil {
			return false
		}
		want := append(append([]byte{}, head...), data...)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.QueryCap != DefaultQueryCap || c.RespCap != DefaultRespCap ||
		c.Inflight != DefaultInflight || c.BudgetMedian != DefaultBudgetMedian {
		t.Fatalf("defaults: %+v", c)
	}
	if c2 := (Config{BudgetMedian: -5}).withDefaults(); c2.BudgetMedian != -5 {
		t.Fatal("negative budget must survive defaulting")
	}
}

func newTestSession() *serverSession {
	return &serverSession{Stream: pt.NewStream(netem.NewClock(), "dns", "server", "client", serverQueue)}
}

func TestServerSessionReassembly(t *testing.T) {
	ss := newTestSession()
	ss.acceptUpstream(1, []byte("BB"))
	ss.acceptUpstream(0, []byte("AA"))
	// Neither the empty-poll sentinel nor a data-less query may consume
	// a sequence number.
	ss.acceptUpstream(emptyQseq, []byte("xx"))
	ss.acceptUpstream(2, nil)
	ss.acceptUpstream(2, []byte("CC"))
	got := make([]byte, 6)
	if _, err := io.ReadFull(ss, got); err != nil || string(got) != "AABBCC" {
		t.Fatalf("reassembly: %q %v", got, err)
	}
}

func TestTakeDownstreamRespectsCap(t *testing.T) {
	ss := newTestSession()
	if _, err := ss.Write(bytes.Repeat([]byte{1}, 1500)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{512, 512, 476} {
		if chunk, rseq := ss.takeDownstream(nil, 512); len(chunk) != want || rseq != uint32(i) {
			t.Fatalf("chunk %d: len=%d rseq=%d", i, len(chunk), rseq)
		}
	}
	if chunk, rseq := ss.takeDownstream(nil, 512); len(chunk) != 0 || rseq != emptyRseq {
		t.Fatal("empty queue must answer the empty sentinel")
	}
}
