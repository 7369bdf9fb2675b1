package camoufler

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/netem"
)

func TestMessageFrameRoundTrip(t *testing.T) {
	f := func(to string, seq uint64, payload []byte) bool {
		if len(to) > 255 || len(to)+len(payload) > 60000 {
			return true
		}
		var buf bytes.Buffer
		if err := writeMessage(&buf, new([]byte), to, seq, payload); err != nil {
			return false
		}
		gotTo, gotSeq, gotPayload, err := readMessage(&buf, new([]byte))
		if err != nil {
			return false
		}
		return string(gotTo) == to && gotSeq == seq && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageFrameRejectsOverlongAccount(t *testing.T) {
	var buf bytes.Buffer
	long := string(make([]byte, 300))
	if err := writeMessage(&buf, new([]byte), long, 1, nil); err == nil {
		t.Fatal("overlong account name must fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MessageCap != DefaultMessageCap || c.RatePerSec != DefaultRatePerSec || c.LossProb != DefaultLossProb {
		t.Fatalf("defaults: %+v", c)
	}
	if c2 := (Config{LossProb: -1}).withDefaults(); c2.LossProb != 0 {
		t.Fatal("negative loss must disable loss")
	}
}

// scripted returns the imConn of account "me" whose provider sends wire
// and then hangs up.
func scripted(t *testing.T, wire []byte) *imConn {
	n := netem.New()
	t.Cleanup(n.Clock().Shutdown)
	h := n.MustAddHost(netem.HostConfig{Name: "im"})
	ln, err := h.Listen(5222)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Write(wire)
		c.Close()
	})
	c, err := h.Dial("im:5222")
	if err != nil {
		t.Fatal(err)
	}
	return newIMConn(n.Clock(), c.(*netem.Conn), "me", "peer", 1024)
}

func TestIMConnReordersBySeq(t *testing.T) {
	// The provider sends the messages out of order.
	var msgs bytes.Buffer
	writeMessage(&msgs, new([]byte), "me", 2, []byte("BB"))
	writeMessage(&msgs, new([]byte), "me", 1, []byte("AA"))
	writeMessage(&msgs, new([]byte), "me", 3, []byte("CC"))

	ic := scripted(t, msgs.Bytes())
	got := make([]byte, 6)
	total := 0
	for total < 6 {
		n, err := ic.Read(got[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if string(got) != "AABBCC" {
		t.Fatalf("got %q", got)
	}
}

func TestIMConnLostMessageStalls(t *testing.T) {
	var msgs bytes.Buffer
	writeMessage(&msgs, new([]byte), "me", 1, []byte("AA"))
	// seq 2 lost.
	writeMessage(&msgs, new([]byte), "me", 3, []byte("CC"))

	ic := scripted(t, msgs.Bytes())
	buf := make([]byte, 8)
	n, err := ic.Read(buf)
	if err != nil || string(buf[:n]) != "AA" {
		t.Fatalf("first read: %q %v", buf[:n], err)
	}
	// The stream must deliver nothing further: the gap never fills and
	// the conn EOFs when the provider hangs up.
	n, err = ic.Read(buf)
	if n != 0 || err == nil {
		t.Fatalf("gap should stall the stream, got %q err=%v", buf[:n], err)
	}
}

// TestIMConnEndsWhenPeerLogsOff: the provider's unavailable-presence
// notice for the peer account ends the tunnel, one for another account
// does not, and a message that does not parse ends it too.
func TestIMConnEndsWhenPeerLogsOff(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail func(w *bytes.Buffer)
		ends bool
	}{
		{"other account", func(w *bytes.Buffer) { writeMessage(w, new([]byte), "stranger", presenceGoneSeq, nil) }, false},
		{"peer", func(w *bytes.Buffer) { writeMessage(w, new([]byte), "peer", presenceGoneSeq, nil) }, true},
		{"short message", func(w *bytes.Buffer) { w.Write([]byte{0, 3, 1, 'a', 0}) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var msgs bytes.Buffer
			writeMessage(&msgs, new([]byte), "me", 1, []byte("AA"))
			tc.tail(&msgs)
			writeMessage(&msgs, new([]byte), "me", 2, []byte("BB"))
			ic := scripted(t, msgs.Bytes())
			got, err := io.ReadAll(ic)
			if want := map[bool]string{false: "AABB", true: "AA"}[tc.ends]; string(got) != want || err != nil {
				t.Fatalf("read %q, %v; want %q", got, err, want)
			}
		})
	}
}

// TestRefusedDeliveryWaitsForTheWindow: the provider's delivery chain
// keeps a message the account's full receive window refuses and offers
// it again, and once the account reads, every message arrives once and
// in order.
func TestRefusedDeliveryWaitsForTheWindow(t *testing.T) {
	n := netem.New()
	t.Cleanup(n.Clock().Shutdown)
	clock := n.Clock()
	h := n.MustAddHost(netem.HostConfig{Name: "im"})
	s, err := StartIMServer(h, 5222, Config{RatePerSec: 1000, LossProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	login := func(name string) netem.Stream {
		c, err := h.Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeMessage(c, new([]byte), name, 0, nil); err != nil {
			t.Fatal(err)
		}
		clock.Sleep(100 * time.Millisecond)
		return c
	}
	to, from := login("to"), login("from")
	const msgs, size = 40, 30000
	payload := func(seq int) []byte { return bytes.Repeat([]byte{byte(seq)}, size) }
	n.Go(func() {
		var wbuf []byte
		for seq := 1; seq <= msgs; seq++ {
			writeMessage(from, &wbuf, "to", uint64(seq), payload(seq))
		}
	})
	clock.Sleep(time.Second)
	if left := s.accounts["to"].conn.(*netem.Conn).WriteBudget(); left >= size {
		t.Fatalf("%d bytes of the account's window left after 1 s: it never filled", left)
	}
	var rbuf []byte
	for seq := 1; seq <= msgs; seq++ {
		sender, got, body, err := readMessage(to, &rbuf)
		if err != nil || string(sender) != "from" || got != uint64(seq) || !bytes.Equal(body, payload(seq)) {
			t.Fatalf("message %d: from %q, seq %d, %d bytes, %v", seq, sender, got, len(body), err)
		}
	}
}

// writeMessage writes one message, built in *buf's array.
func writeMessage(w io.Writer, buf *[]byte, to string, seq uint64, payload []byte) (err error) {
	if *buf, err = appendMessage((*buf)[:0], to, seq, payload); err == nil {
		_, err = w.Write(*buf)
	}
	return err
}
