package meek

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPollFrameRoundTrip(t *testing.T) {
	f := func(sid uint64, body []byte) bool {
		var buf bytes.Buffer
		if err := writePoll(&buf, new([]byte), sid, body); err != nil {
			return false
		}
		gotSid, gotBody, err := readPoll(&buf, new([]byte))
		if err != nil {
			return false
		}
		return gotSid == sid && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	f := func(status byte, body []byte) bool {
		var buf bytes.Buffer
		if err := writeReply(&buf, new([]byte), status, body); err != nil {
			return false
		}
		gotStatus, gotBody, err := readReply(&buf, new([]byte))
		if err != nil {
			return false
		}
		return gotStatus == status && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadPollRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 1}) // sid
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length
	if _, _, err := readPoll(&buf, new([]byte)); err == nil {
		t.Fatal("oversized poll must be rejected")
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
