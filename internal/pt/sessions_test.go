package pt_test

import (
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/dnstt"
	"ptperf/internal/pt/meek"
)

// TestSessionsExpireThenForget is the regression test for tables that
// only ever grew: N sessions are opened and abandoned; one window later
// every stream has been cut (in creation order, never map order) but the
// entries remain as tombstones, and a window after that the table is
// empty.
func TestSessionsExpireThenForget(t *testing.T) {
	const n = 40
	clock := netem.NewClock()
	var opened, cut []*pt.Stream
	table := pt.NewSessions(clock, func(key int) *pt.Stream {
		s := pt.NewStream(clock, "test", fmt.Sprint(key), "peer", 16)
		opened = append(opened, s)
		return s
	}, func(s *pt.Stream) {
		cut = append(cut, s)
		s.Fail()
	})
	for key := n - 1; key >= 0; key-- {
		table.Touch(key)
		clock.Sleep(time.Millisecond)
	}
	kept := table.Touch(1000)
	removed := table.Touch(1001)
	table.Remove(1001)

	clock.Sleep(pt.StaleAfter / 2)
	if table.Touch(1000) != kept || len(cut) != 0 {
		t.Fatal("a session was cut or replaced inside its first window")
	}
	clock.Sleep(pt.StaleAfter / 2)
	if !slices.Equal(cut, opened[:n]) {
		t.Fatalf("one window on: %d of %d sessions cut, or not in creation order", len(cut), n)
	}
	if table.Len() != n+1 {
		t.Fatalf("one window on: %d sessions held, want %d tombstones and the live one", table.Len(), n)
	}
	// A straggler finds the dead session, not a fresh one.
	if s := table.Touch(0); s != opened[n-1] || !s.Closed() || len(opened) != n+2 {
		t.Fatal("a straggler reopened an expired session")
	}
	if kept.Closed() || removed.Closed() {
		t.Fatal("a live or a removed session was expired")
	}

	table.Touch(1000)
	clock.Sleep(pt.StaleAfter)
	if table.Len() != 2 {
		t.Fatalf("two windows on: %d sessions held, want the live one and the straggler's", table.Len())
	}
	clock.Sleep(3 * pt.StaleAfter)
	if table.Len() != 0 || !kept.Closed() || removed.Closed() {
		t.Fatalf("abandoned for good: %d sessions still held", table.Len())
	}
}

// TestVanishedClientIsReaped drives the shared staleness path through
// both polling transports: the client's host drops off the network
// without closing anything, and the server must cut the session — EOF
// into the handler — after one quiet window, not sooner and not never.
func TestVanishedClientIsReaped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(w *world, handle pt.StreamHandler) (pt.Dialer, error)
	}{
		{"meek", func(w *world, handle pt.StreamHandler) (pt.Dialer, error) {
			cfg := meek.Config{Seed: 1, SessionBudgetMedian: -1}
			bridge, err := meek.StartBridge(w.server, 443, cfg, handle)
			if err != nil {
				return nil, err
			}
			front, err := meek.StartFront(w.extra, 443, cfg, bridge.Addr())
			if err != nil {
				return nil, err
			}
			return meek.NewDialer(w.client, front.Addr(), cfg), nil
		}},
		{"dnstt", func(w *world, handle pt.StreamHandler) (pt.Dialer, error) {
			cfg := dnstt.Config{Seed: 1, BudgetMedian: -1}
			srv, err := dnstt.StartServer(w.server, 53, cfg, handle)
			if err != nil {
				return nil, err
			}
			res, err := dnstt.StartResolver(w.extra, 443, cfg, srv.Addr())
			if err != nil {
				return nil, err
			}
			return dnstt.NewDialer(w.client, res.Addr(), cfg), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			clock := w.net.Clock()
			ended := netem.NewChan[time.Duration](clock, 1)
			d, err := tc.start(w, func(_ string, conn net.Conn) {
				io.Copy(io.Discard, conn)
				ended.Send(clock.Now())
				conn.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := d.Dial("guard-0:9001")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			clock.Sleep(5 * time.Second)
			if ended.Len() != 0 {
				t.Fatal("handler saw EOF while the client was polling")
			}
			vanished := clock.Now()
			w.net.AbortHostConns("client")

			at, _, timedOut := ended.RecvTimeout(4 * pt.StaleAfter)
			if timedOut {
				t.Fatal("the vanished client's session was never cut")
			}
			if quiet := at - vanished; quiet < pt.StaleAfter || quiet >= 2*pt.StaleAfter {
				t.Fatalf("session cut %v after the client vanished, want within [%v, %v)", quiet, pt.StaleAfter, 2*pt.StaleAfter)
			}
		})
	}
}
