package dnstt

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

func TestFrameRoundTrip(t *testing.T) {
	// One pair of buffers for every frame, like a hop's.
	var wbuf, got []byte
	f := func(head, data []byte) bool {
		if len(head)+len(data) > 60000 {
			return true
		}
		wbuf = pt.AppendPrefix16(wbuf[:0], head, data)
		var err error
		if got, err = readFrame(bytes.NewReader(wbuf), got); err != nil {
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

// TestCapsThatWrapRefused: a cap whose frames would not fit the 16-bit
// length prefix is refused by the server, the resolver and the dialer,
// before any of them listens or dials.
func TestCapsThatWrapRefused(t *testing.T) {
	wrapping := []Config{
		{QueryCap: math.MaxUint16 - sessionLen - 4 + 1},
		{RespCap: math.MaxUint16 - 4 + 1},
	}
	host := func(t *testing.T) *netem.Host {
		n := netem.New()
		t.Cleanup(n.Clock().Shutdown)
		return n.MustAddHost(netem.HostConfig{Name: "h"})
	}
	t.Run("StartServer", func(t *testing.T) {
		h := host(t)
		for _, cfg := range wrapping {
			if _, err := StartServer(h, 53, cfg, nil); err == nil {
				t.Errorf("took %+v", cfg)
			}
		}
		if _, err := StartServer(h, 53, Config{}, nil); err != nil {
			t.Errorf("a refused server left its port taken: %v", err)
		}
	})
	t.Run("StartResolver", func(t *testing.T) {
		h := host(t)
		for _, cfg := range wrapping {
			if _, err := StartResolver(h, 443, cfg, "h:53"); err == nil {
				t.Errorf("took %+v", cfg)
			}
		}
		if _, err := StartResolver(h, 443, Config{}, "h:53"); err != nil {
			t.Errorf("a refused resolver left its port taken: %v", err)
		}
	})
	t.Run("Dial", func(t *testing.T) {
		h := host(t)
		ln, err := h.Listen(443)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		for _, cfg := range wrapping {
			if _, err := NewDialer(h, "h:443", cfg).Dial("guard:9001"); err == nil {
				t.Errorf("took %+v", cfg)
			}
		}
		if s := h.Network().Acct().Snapshot(); s.Dials != 0 {
			t.Errorf("a refused Dial dialed the resolver %d times", s.Dials)
		}
	})
}

// TestLargestCapsCarryData: at the largest caps that fit, every frame is
// a full 65 535 bytes over several segments, and bytes still echo
// through the tunnel intact.
func TestLargestCapsCarryData(t *testing.T) {
	n := netem.New()
	t.Cleanup(n.Clock().Shutdown)
	client := n.MustAddHost(netem.HostConfig{Name: "client"})
	resolver := n.MustAddHost(netem.HostConfig{Name: "resolver"})
	server := n.MustAddHost(netem.HostConfig{Name: "server"})
	cfg := Config{QueryCap: math.MaxUint16 - sessionLen - 4, RespCap: math.MaxUint16 - 4, Inflight: 2, BudgetMedian: -1}
	// The echo parks, so the handler, which the server calls from a
	// clock event, spawns it.
	srv, err := StartServer(server, 53, cfg, func(_ string, c netem.Stream) {
		n.Go(func() {
			defer c.Close()
			io.Copy(c, c)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := StartResolver(resolver, 443, cfg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewDialer(client, res.Addr(), cfg).Dial("guard:9001")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte("largest-caps/"), 20_000)
	done := netem.NewChan[error](n.Clock(), 1)
	n.Go(func() {
		_, err := conn.Write(msg)
		done.Send(err)
	})
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if err, _ := done.Recv(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("the echo differs from what was written")
	}
}
