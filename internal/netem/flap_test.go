package netem

import (
	"io"
	"testing"

	"ptperf/internal/geo"
)

// TestLinkDownBlocksNewDialsOnly pins the flap semantics the fault
// injector relies on: while a host's link is down, new dials in either
// direction fail immediately and move no accounting (the censor's
// blocked-dial cross-check depends on that), but conns already
// established keep working until someone aborts them explicitly.
func TestLinkDownBlocksNewDialsOnly(t *testing.T) {
	n := New(WithSeed(3))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(HostConfig{Name: "a", Location: geo.Frankfurt})
	b := n.MustAddHost(HostConfig{Name: "b", Location: geo.London})
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := c
			n.Go(func() { defer conn.Close(); io.Copy(conn, conn) })
		}
	})

	pre, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()

	b.SetLinkDown(true)
	if !b.LinkDown() {
		t.Fatal("LinkDown not reported")
	}
	snap := n.Acct().Snapshot()
	if _, err := a.Dial("b:80"); err == nil {
		t.Fatal("dial to a downed host succeeded")
	}
	if _, err := b.Dial("a:1"); err == nil {
		t.Fatal("dial from a downed host succeeded")
	}
	post := n.Acct().Snapshot()
	if post.Dials != snap.Dials || post.DialsRefused != snap.DialsRefused {
		t.Fatalf("link-down dials moved accounting: dials %d→%d refused %d→%d",
			snap.Dials, post.Dials, snap.DialsRefused, post.DialsRefused)
	}

	// The established conn is unaffected by the administrative state.
	if _, err := pre.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(pre, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("established conn broken by flap: %v %q", err, buf)
	}

	b.SetLinkDown(false)
	c2, err := a.Dial("b:80")
	if err != nil {
		t.Fatalf("dial after link-up: %v", err)
	}
	c2.Close()
}
