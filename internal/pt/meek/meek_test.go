package meek

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/pt"
	"ptperf/internal/testkit/streamtest"
)

func TestPollFrameRoundTrip(t *testing.T) {
	f := func(sid uint64, body []byte) bool {
		frame := appendFrame(nil, binary.BigEndian.AppendUint64(nil, sid), body)
		if _, end, err := cutPoll(frame); err != nil || end != len(frame) {
			return false
		}
		gotSid, gotBody, err := readPoll(bytes.NewReader(frame), new([]byte))
		return err == nil && gotSid == sid && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	f := func(status byte, body []byte) bool {
		frame := appendFrame(nil, []byte{status}, body)
		if _, end, err := cutReply(frame); err != nil || end != len(frame) {
			return false
		}
		gotStatus, gotBody, err := readReply(bytes.NewReader(frame), new([]byte))
		return err == nil && gotStatus == status && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadPollRejectsOversized(t *testing.T) {
	frame := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF} // sid, absurd length
	if _, _, err := readPoll(bytes.NewReader(frame), new([]byte)); err == nil {
		t.Fatal("oversized poll must be rejected")
	}
	if _, _, err := cutPoll(frame); err == nil {
		t.Fatal("oversized poll must not be cut")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BridgeRate != DefaultBridgeRate || c.SessionBudgetMedian != DefaultSessionBudgetMedian {
		t.Fatalf("defaults: %+v", c)
	}
	// Negative budget disables the cut.
	c2 := Config{SessionBudgetMedian: -1}.withDefaults()
	if c2.SessionBudgetMedian != -1 {
		t.Fatal("negative budget must survive defaulting")
	}
}

func TestDrawBudgetRespectsDisable(t *testing.T) {
	b := &Bridge{cfg: Config{SessionBudgetMedian: -1}.withDefaults(), rng: rand.New(rand.NewSource(1))}
	if got := b.drawBudget(); got < 1<<60 {
		t.Fatalf("disabled budget should be effectively infinite, got %d", got)
	}
	b2 := &Bridge{cfg: Config{SessionBudgetMedian: 1 << 20}.withDefaults(), rng: rand.New(rand.NewSource(2))}
	for i := 0; i < 100; i++ {
		if got := b2.drawBudget(); got < 64<<10 {
			t.Fatalf("budget draw below floor: %d", got)
		}
	}
}

// TestFramesBuiltInPlace: once its world's frame list holds an array, a
// further answerer of the bridge takes a 64 KiB chunk of its session's
// stream into a reply and sends it with no allocation. An answerer that
// kept arrays of its own grew them for its first reply.
func TestFramesBuiltInPlace(t *testing.T) {
	const runs = 4
	n, conns, peers := streamtest.Pairs(t, 0, 2*(runs+1))
	clock := n.Clock()
	b := &Bridge{cfg: Config{BridgeRate: math.Inf(1)}.withDefaults(), clock: clock}
	s := &bridgeSession{Stream: pt.NewStream(clock, "meek", "meek-bridge", "meek-client", maxQueue), budget: 1 << 62}
	b.sessions = pt.NewSessions(clock, func(uint64) *bridgeSession { return s }, b.cut)
	answerers := make([]*answerer, len(conns))
	got := 0
	for k, c := range conns {
		a := &answerer{b: b}
		a.in = pt.NewFrameConn(cutPoll, a.poll, func() {})
		a.replyFn = func() { a.in.Send(a.reply) }
		a.in.Attach(c)
		answerers[k] = a
		peers[k].SetReadSink(func(data []byte, base *[]byte, pool *sync.Pool, _ error) {
			got += len(data)
			clock.Recycle(pool, base)
		})
	}
	poll, down := appendFrame(nil, make([]byte, 8), nil), bytes.Repeat([]byte("d"), chunk)
	reply := func() {
		a := answerers[0]
		answerers = answerers[1:]
		s.Write(down)
		a.poll(poll)
	}
	for range runs + 1 {
		reply()
	}
	clock.Sleep(time.Second) // the peers read the replies and their segments go back
	if allocs := testing.AllocsPerRun(runs, reply); allocs != 0 {
		t.Fatalf("a further answerer's %d-byte reply allocated %v objects, want 0", chunk, allocs)
	}
	if clock.Sleep(time.Second); got != len(conns)*(5+chunk) {
		t.Fatalf("the peers read %d bytes, want %d replies of %d", got, len(conns), 5+chunk)
	}
}
