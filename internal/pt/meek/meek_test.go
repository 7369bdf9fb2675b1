package meek

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
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
