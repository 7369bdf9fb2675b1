package marionette

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"ptperf/internal/netem"
)

// pair returns a conn from a host to itself and the end it accepted.
func pair(t *testing.T) (*netem.Clock, *netem.Conn, *netem.Conn) {
	n := netem.New()
	t.Cleanup(n.Clock().Shutdown)
	h := n.MustAddHost(netem.HostConfig{Name: "m"})
	ln, err := h.Listen(21)
	if err != nil {
		t.Fatal(err)
	}
	accepted := netem.NewChan[netem.Stream](n.Clock(), 1)
	n.Go(func() {
		if c, err := ln.Accept(); err == nil {
			accepted.TrySend(c)
		}
	})
	c, err := h.Dial("m:21")
	if err != nil {
		t.Fatal(err)
	}
	peer, _ := accepted.Recv()
	return n.Clock(), c.(*netem.Conn), peer.(*netem.Conn)
}

// lockstep is a model whose every transition is paced 10 ms and awaits
// the peer's reply.
func lockstep() *Model {
	est := func(cover, next string) []Transition {
		return []Transition{{
			To: next, Weight: 1, Act: Action{Cover: cover}, AwaitReply: true,
			MinDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Millisecond,
		}}
	}
	return &Model{Start: "banner", Data: "user", States: map[string][]Transition{
		"banner": est("220\r\n", "user"),
		"user":   est("USER\r\n", "user"),
	}}
}

// TestSetupWaitFailsAtThirtySeconds: a peer that never answers the
// banner fails the conn exactly replyTimeout after the banner went out,
// and not a nanosecond earlier.
func TestSetupWaitFailsAtThirtySeconds(t *testing.T) {
	clock, c, _ := pair(t)
	mc := newConn(lockstep(), c, clock, 1)
	banner := clock.Now() + 10*time.Millisecond
	// Once the wait is armed, look at the conn from events that run
	// after everything else of their instant.
	clock.SleepUntil(banner + time.Millisecond)
	var early, late bool
	clock.EventAt(banner+replyTimeout-1, func() { early = mc.Closed() })
	clock.EventAt(banner+replyTimeout, func() { late = mc.Closed() })
	clock.SleepUntil(banner + replyTimeout + time.Millisecond)
	if early || !late {
		t.Fatalf("closed 1 ns before the reply timeout: %v, at it: %v; want false, true", early, late)
	}
}

// TestLateReplyOutlivesItsTimeout: a reply 29.9 s after the banner lets
// the walk go on, and the banner's timeout, which fires afterwards,
// changes nothing.
func TestLateReplyOutlivesItsTimeout(t *testing.T) {
	clock, c, peer := pair(t)
	mc := newConn(lockstep(), c, clock, 1)
	banner := clock.Now() + 10*time.Millisecond
	frames := frameReader{r: peer}
	if cover, _, _, err := frames.next(); err != nil || string(cover) != "220\r\n" {
		t.Fatalf("read %q, %v; want the banner", cover, err)
	}
	oneWay := clock.Now() - banner
	clock.SleepUntil(banner + 29900*time.Millisecond - oneWay)
	peer.Write(appendFrame(nil, "331\r\n", nil, false))

	type walk struct {
		state                   string
		replies, waiting, waits int
		closed                  bool
	}
	now := func() walk { return walk{mc.state, mc.replies, mc.waiting, mc.waits, mc.Closed()} }
	clock.SleepUntil(banner + replyTimeout - 1)
	before := now()
	if before.closed || before.state != "user" || before.waiting == 0 {
		t.Fatalf("after the reply the walk is %+v, want it awaiting the reply to USER", before)
	}
	clock.SleepUntil(banner + replyTimeout)
	if after := now(); after != before {
		t.Fatalf("the stale timeout moved the walk from %+v to %+v", before, after)
	}
	for i := 0; i < 2; i++ {
		if cover, _, _, err := frames.next(); err != nil || string(cover) != "USER\r\n" {
			t.Fatalf("read %q, %v; want USER", cover, err)
		}
		peer.Write(appendFrame(nil, "230\r\n", nil, false))
	}
	if mc.Closed() {
		t.Fatal("the walk failed after its replies")
	}
}

// TestEarlyReplyIsACredit: a peer message that arrives before the walk
// waits for it answers the wait at once.
func TestEarlyReplyIsACredit(t *testing.T) {
	clock, c, peer := pair(t)
	peer.Write(appendFrame(nil, "331\r\n", nil, false))
	start := clock.Now()
	newConn(lockstep(), c, clock, 1)
	frames := frameReader{r: peer}
	for _, want := range []string{"220\r\n", "USER\r\n"} {
		if cover, _, _, err := frames.next(); err != nil || string(cover) != want {
			t.Fatalf("read %q, %v; want %q", cover, err, want)
		}
	}
	if took := clock.Now() - start; took > time.Second {
		t.Fatalf("USER came %v after the start: the early reply did not answer the banner's wait", took)
	}
}

// TestRefusedFrameWaitsForTheWindow: a data frame the peer's full
// receive window refuses is offered again, keeping the frame array it
// was built in, and once the peer reads, every byte arrives once and in
// order and the array is back.
func TestRefusedFrameWaitsForTheWindow(t *testing.T) {
	clock, c, peer := pair(t)
	const capacity = 60000
	m := &Model{Start: "xfer", Data: "xfer", States: map[string][]Transition{"xfer": {{
		To: "xfer", Weight: 1, Act: Action{Cover: "APPE\r\n", Capacity: capacity},
		MinDelay: time.Millisecond, MaxDelay: time.Millisecond,
	}}}}
	mc := newConn(m, c, clock, 1)
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i ^ i>>8)
	}
	wrote := false
	clock.Go(func() {
		mc.Write(msg)
		mc.CloseWrite()
		wrote = true
	})
	clock.Sleep(time.Second)
	if wrote || c.WriteBudget() >= capacity {
		t.Fatalf("after 1 s, wrote=%v with %d bytes of window left: the peer's window never filled", wrote, c.WriteBudget())
	}
	i := slices.IndexFunc(netem.BufClasses(), func(b *netem.BufClass) bool { return b.Name() == "frame" })
	frameArrays := netem.BufClasses()[i]
	if out := frameArrays.Out(clock); out != 1 {
		t.Fatalf("%d frame arrays out while a refused frame waits, want the one it was built in", out)
	}
	var got []byte
	frames := frameReader{r: peer}
	for {
		_, payload, fin, err := frames.next()
		if err != nil {
			t.Fatal(err)
		}
		if fin {
			break
		}
		got = append(got, payload...)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("the peer read %d bytes, not the %d written in order", len(got), len(msg))
	}
	if out := frameArrays.Out(clock); out != 0 {
		t.Fatalf("%d frame arrays out once the FIN was taken, want 0", out)
	}
}
