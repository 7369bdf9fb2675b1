package camoufler

import (
	"bytes"
	"errors"
	"net"
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
	if c.MessageCap != DefaultMessageCap || c.RatePerSec != DefaultRatePerSec ||
		c.DeliveryDelay != DefaultDeliveryDelay || c.LossProb != DefaultLossProb {
		t.Fatalf("defaults: %+v", c)
	}
	if c2 := (Config{LossProb: -1}).withDefaults(); c2.LossProb != 0 {
		t.Fatal("negative loss must disable loss")
	}
}

func TestIMConnReordersBySeq(t *testing.T) {
	// Feed messages out of order through a scripted conn.
	script := &scriptConn{}
	var msgs bytes.Buffer
	writeMessage(&msgs, new([]byte), "me", 2, []byte("BB"))
	writeMessage(&msgs, new([]byte), "me", 1, []byte("AA"))
	writeMessage(&msgs, new([]byte), "me", 3, []byte("CC"))
	script.in = msgs.Bytes()

	ic := newIMConn(netem.NewClock(), script, "me", "peer", 1024)
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
	script := &scriptConn{}
	var msgs bytes.Buffer
	writeMessage(&msgs, new([]byte), "me", 1, []byte("AA"))
	// seq 2 lost.
	writeMessage(&msgs, new([]byte), "me", 3, []byte("CC"))
	script.in = msgs.Bytes()

	ic := newIMConn(netem.NewClock(), script, "me", "peer", 1024)
	buf := make([]byte, 8)
	n, err := ic.Read(buf)
	if err != nil || string(buf[:n]) != "AA" {
		t.Fatalf("first read: %q %v", buf[:n], err)
	}
	// The stream must deliver nothing further: the gap never fills and
	// the conn eventually EOFs when the script runs dry.
	n, err = ic.Read(buf)
	if n != 0 || err == nil {
		t.Fatalf("gap should stall the stream, got %q err=%v", buf[:n], err)
	}
}

// scriptConn replays canned bytes then EOFs; writes are discarded.
type scriptConn struct {
	in  []byte
	pos int
}

func (s *scriptConn) Read(p []byte) (int, error) {
	if s.pos >= len(s.in) {
		return 0, errScriptDone
	}
	n := copy(p, s.in[s.pos:])
	s.pos += n
	return n, nil
}

func (s *scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (s *scriptConn) Close() error                { return nil }
func (s *scriptConn) LocalAddr() net.Addr         { return scriptAddr{} }
func (s *scriptConn) RemoteAddr() net.Addr        { return scriptAddr{} }
func (s *scriptConn) SetDeadline(time.Time) error { return nil }
func (s *scriptConn) SetReadDeadline(t time.Time) error {
	return nil
}
func (s *scriptConn) SetWriteDeadline(time.Time) error { return nil }

type scriptAddr struct{}

func (scriptAddr) Network() string { return "script" }
func (scriptAddr) String() string  { return "script" }

var errScriptDone = errors.New("script exhausted")
