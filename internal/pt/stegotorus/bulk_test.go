package stegotorus

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// TestBulkOverManyConns reproduces the ablation setup: a large one-way
// transfer spliced through the server with several fan-out conns.
func TestBulkOverManyConns(t *testing.T) {
	for _, conns := range []int{1, 2, 4, 8} {
		conns := conns
		t.Run(string(rune('0'+conns)), func(t *testing.T) {
			n := netem.New(netem.WithSeed(int64(conns)))
			t.Cleanup(n.Clock().Shutdown)
			client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
			server := n.MustAddHost(netem.HostConfig{Name: "server", Location: geo.Frankfurt})
			sink := n.MustAddHost(netem.HostConfig{Name: "sink", Location: geo.NewYork})

			blob := bytes.Repeat([]byte("bulk-data!"), 26<<10) // 260 KB
			ln, err := sink.Listen(80)
			if err != nil {
				t.Fatal(err)
			}
			n.Go(func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				// Consume the request line, then stream the blob.
				buf := make([]byte, 64)
				c.Read(buf)
				c.Write(blob)
				if cw, ok := c.(interface{ CloseWrite() error }); ok {
					cw.CloseWrite()
				}
			})

			cfg := Config{Seed: int64(conns), Conns: conns}
			srv, err := StartServer(server, 8080, cfg, pt.ForwardTo(server))
			if err != nil {
				t.Fatal(err)
			}
			d := NewDialer(client, srv.Addr(), cfg)
			conn, err := netem.Await(n.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
				return d.DialEvent("sink:80", done)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("GET\n")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(blob))
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatalf("conns=%d: %v", conns, err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("conns=%d corrupted", conns)
			}
			var _ netem.Stream = conn
		})
	}
}

// TestIncompleteFanOutIsClosed: a session whose last fan-out conn never
// arrives goes stale and the conns it has are closed; a conn that comes
// for it afterwards is turned away, not taken for a fresh session.
func TestIncompleteFanOutIsClosed(t *testing.T) {
	n := netem.New(netem.WithSeed(5))
	t.Cleanup(n.Clock().Shutdown)
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	server := n.MustAddHost(netem.HostConfig{Name: "server", Location: geo.Frankfurt})
	srv, err := StartServer(server, 8080, Config{Seed: 1}, func(string, netem.Stream) {
		t.Error("a fan-out of one conn out of two reached the handler")
	})
	if err != nil {
		t.Fatal(err)
	}
	// dial opens fan-out conn index of a two-conn session and returns
	// the virtual time until the server closes it.
	dial := func(index byte) time.Duration {
		c, err := client.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var pre [10]byte
		binary.BigEndian.PutUint64(pre[:8], 42)
		pre[8], pre[9] = index, 2
		if _, err := c.Write(pre[:]); err != nil {
			t.Fatal(err)
		}
		start := n.Clock().Now()
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("the server wrote to a conn of an incomplete fan-out")
		}
		return n.Clock().Now() - start
	}
	if waited := dial(0); waited < pt.StaleAfter || waited >= 2*pt.StaleAfter {
		t.Fatalf("the lone conn was closed after %v, want within [%v, %v)", waited, pt.StaleAfter, 2*pt.StaleAfter)
	}
	if waited := dial(1); waited >= time.Second {
		t.Fatalf("the straggler was held %v, want it turned away at once", waited)
	}
}
