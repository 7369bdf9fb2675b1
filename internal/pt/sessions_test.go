package pt

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ptperf/internal/netem"
)

// TestSessionsExpireThenForget is the regression test for tables that
// only ever grew: N sessions are opened and abandoned; one window later
// every stream has been cut (in creation order, never map order) but the
// entries remain as tombstones, and a window after that the table is
// empty.
func TestSessionsExpireThenForget(t *testing.T) {
	const n = 40
	clock := netem.NewClock()
	var opened, cut []*Stream
	table := NewSessions(clock, func(key int) *Stream {
		s := NewStream(clock, "test", fmt.Sprint(key), "peer", 16)
		opened = append(opened, s)
		return s
	}, func(s *Stream) {
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

	clock.Sleep(StaleAfter / 2)
	if table.Touch(1000) != kept || len(cut) != 0 {
		t.Fatal("a session was cut or replaced inside its first window")
	}
	clock.Sleep(StaleAfter / 2)
	if !slices.Equal(cut, opened[:n]) {
		t.Fatalf("one window on: %d of %d sessions cut, or not in creation order", len(cut), n)
	}
	if len(table.byKey) != n+1 {
		t.Fatalf("one window on: %d sessions held, want %d tombstones and the live one", len(table.byKey), n)
	}
	// A straggler finds the dead session, not a fresh one.
	if s := table.Touch(0); s != opened[n-1] || !s.Closed() || len(opened) != n+2 {
		t.Fatal("a straggler reopened an expired session")
	}
	if kept.Closed() || removed.Closed() {
		t.Fatal("a live or a removed session was expired")
	}

	table.Touch(1000)
	clock.Sleep(StaleAfter)
	if len(table.byKey) != 2 {
		t.Fatalf("two windows on: %d sessions held, want the live one and the straggler's", len(table.byKey))
	}
	clock.Sleep(3 * StaleAfter)
	if len(table.byKey) != 0 || !kept.Closed() || removed.Closed() {
		t.Fatalf("abandoned for good: %d sessions still held", len(table.byKey))
	}
}
