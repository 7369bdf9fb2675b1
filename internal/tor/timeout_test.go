package tor

import (
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// timeoutEnd is one kind of world conn under the read-timeout contract:
// s, whose peer sends nothing unless send is called, and the clock it
// reads on. send has the peer's bytes arrive at s within a second.
type timeoutEnd struct {
	s     netem.Stream
	clock *netem.Clock
	send  func(p []byte)
}

// timeoutEnds builds each kind: a bare netem conn and a tor stream to
// the test world's echo server (what s writes comes back), and a
// tunnel's pt.Stream, whose mechanism delivers.
var timeoutEnds = []struct {
	name string
	open func(t *testing.T) timeoutEnd
}{
	{"netem.Conn", func(t *testing.T) timeoutEnd {
		w := buildWorld(t, 1, 1, 1)
		c, err := w.client.Dial(w.target)
		if err != nil {
			t.Fatal(err)
		}
		return timeoutEnd{c, w.net.Clock(), func(p []byte) { c.Write(p) }}
	}},
	{"pt.Stream", func(t *testing.T) timeoutEnd {
		clock := netem.NewClock()
		t.Cleanup(clock.Shutdown)
		s := pt.NewStream(clock, "test", "near", "far", 1<<10)
		return timeoutEnd{s, clock, s.Deliver}
	}},
	{"tor.Stream", func(t *testing.T) timeoutEnd {
		w := buildWorld(t, 1, 1, 1)
		s, err := newTestClient(t, w, nil).Dial(w.target)
		if err != nil {
			t.Fatal(err)
		}
		return timeoutEnd{s, w.net.Clock(), func(p []byte) { s.Write(p) }}
	}},
}

// TestReadTimeoutContract holds netem.Conn, pt.Stream and tor.Stream to
// one read timeout: a virtual duration from the moment it is set.
func TestReadTimeoutContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e timeoutEnd)
	}{
		{"a timeout fires mid-wait", func(t *testing.T, e timeoutEnd) {
			e.clock.Sleep(time.Second)
			want := e.clock.Now() + 20*time.Millisecond
			e.s.SetReadTimeout(20 * time.Millisecond)
			if n, err := e.s.Read(make([]byte, 1)); n != 0 || err != netem.ErrTimeout || e.clock.Now() != want {
				t.Fatalf("Read = %d, %v at %v, want netem.ErrTimeout at %v", n, err, e.clock.Now(), want)
			}
		}},
		{"d <= 0 drains what arrived, then times out", func(t *testing.T, e timeoutEnd) {
			for _, d := range []time.Duration{0, -time.Second} {
				e.send([]byte("arrived"))
				e.clock.Sleep(time.Second)
				e.s.SetReadTimeout(d)
				at := e.clock.Now()
				var got []byte
				buf := make([]byte, 4)
				n, err := e.s.Read(buf)
				for ; err == nil; n, err = e.s.Read(buf) {
					got = append(got, buf[:n]...)
				}
				if string(got) != "arrived" || n != 0 || err != netem.ErrTimeout || e.clock.Now() != at {
					t.Fatalf("d=%v: read %q, then %d and %v at %v; want \"arrived\", then netem.ErrTimeout at %v", d, got, n, err, e.clock.Now(), at)
				}
			}
		}},
		{"NoTimeout arms no timer", func(t *testing.T, e timeoutEnd) {
			e.s.SetReadTimeout(20 * time.Millisecond)
			e.s.SetReadTimeout(netem.NoTimeout)
			before := e.clock.Stats()
			woken := false
			if _, _, done := e.s.ReadEvent(make([]byte, 1), func() { woken = true }); done {
				t.Fatal("an event read with nothing to read did not wait")
			}
			e.clock.Sleep(time.Minute)
			if after := e.clock.Stats(); woken || after != before {
				t.Fatalf("a minute of an untimed wait: woken %v, clock stats %+v, want %+v", woken, after, before)
			}
		}},
		{"net.Conn setters refuse and keep the timeout", func(t *testing.T, e timeoutEnd) {
			want := e.clock.Now() + 20*time.Millisecond
			e.s.SetReadTimeout(20 * time.Millisecond)
			for i, set := range []func(time.Time) error{e.s.SetDeadline, e.s.SetReadDeadline, e.s.SetWriteDeadline} {
				for _, at := range []time.Time{{}, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)} {
					if err := set(at); err == nil {
						t.Fatalf("setter %d (SetDeadline, SetReadDeadline, SetWriteDeadline) accepted %v", i, at)
					}
				}
			}
			if _, err := e.s.Read(make([]byte, 1)); err != netem.ErrTimeout || e.clock.Now() != want {
				t.Fatalf("Read after the setters: %v at %v, want netem.ErrTimeout at %v", err, e.clock.Now(), want)
			}
		}},
	}
	for _, end := range timeoutEnds {
		for _, tc := range cases {
			t.Run(end.name+"/"+tc.name, func(t *testing.T) { tc.run(t, end.open(t)) })
		}
	}
}
