package pt_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// A Stream's read half is its netem.Inbox: the embedding must keep it a
// net.Conn with the threshold read the fetch body copy looks for.
var _ interface {
	net.Conn
	netem.FullReader
	netem.EventReader
} = (*pt.Stream)(nil)

// readNow reads what the stream holds without waiting: a zero read
// timeout turns "nothing yet" into netem.ErrTimeout.
func readNow(clock *netem.Clock, s *pt.Stream) (string, error) {
	s.SetReadTimeout(0)
	defer s.SetReadTimeout(netem.NoTimeout)
	buf := make([]byte, 64)
	n, err := s.Read(buf)
	return string(buf[:n]), err
}

// TestStreamConformance is the one contract every tunnelled endpoint
// (meek, dnstt, camoufler, stegotorus, marionette) inherits from
// pt.Stream.
func TestStreamConformance(t *testing.T) {
	cases := []struct {
		name   string
		outCap int
		run    func(t *testing.T, clock *netem.Clock, s *pt.Stream)
	}{
		{"delivered bytes drain before EOF", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Deliver([]byte("tail"))
			s.Fail()
			s.Deliver([]byte("late")) // nobody will read it: dropped
			if got, err := readNow(clock, s); got != "tail" || err != nil {
				t.Fatalf("drain: %q %v", got, err)
			}
			if _, err := readNow(clock, s); err != io.EOF {
				t.Fatalf("after drain: %v, want io.EOF", err)
			}
			if !s.Closed() {
				t.Fatal("Fail did not close the stream")
			}
		}},
		{"read deadline expires with netem.ErrTimeout", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.SetReadTimeout(50 * time.Millisecond)
			_, err := s.Read(make([]byte, 1))
			if err != netem.ErrTimeout || clock.Now() != 50*time.Millisecond {
				t.Fatalf("err=%v at %v, want netem.ErrTimeout at 50ms", err, clock.Now())
			}
			// Clearing the timeout lets a later delivery through.
			s.SetReadTimeout(netem.NoTimeout)
			clock.Go(func() {
				clock.Sleep(time.Second)
				s.Deliver([]byte("x"))
			})
			if n, err := s.Read(make([]byte, 1)); n != 1 || err != nil {
				t.Fatalf("read after clearing: n=%d err=%v", n, err)
			}
		}},
		{"SetReadTimeout wakes a parked Read", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			clock.Go(func() {
				clock.Sleep(time.Second)
				s.SetReadTimeout(2 * time.Second)
			})
			_, err := s.Read(make([]byte, 1))
			if err != netem.ErrTimeout || clock.Now() != 3*time.Second {
				t.Fatalf("err=%v at %v, want netem.ErrTimeout at 3s", err, clock.Now())
			}
		}},
		{"wall-clock deadlines are rejected, not stored as expired", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			// A fixed 2026 date stands in for the time.Now().Add(d)
			// idiom, which simlint bans here too.
			wall := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).Add(5 * time.Second)
			for _, set := range []func(time.Time) error{s.SetDeadline, s.SetReadDeadline, s.SetWriteDeadline} {
				if err := set(wall); err == nil {
					t.Fatal("wall-clock deadline accepted; want a refusal")
				}
			}
			s.Deliver([]byte("ok"))
			if n, err := s.Read(make([]byte, 2)); n != 2 || err != nil {
				t.Fatalf("rejected deadline was stored: n=%d err=%v", n, err)
			}
		}},
		{"Write blocks at the cap and resumes on Take", 8, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			done := netem.NewChan[int](clock, 1)
			clock.Go(func() {
				n, err := s.Write([]byte("0123456789abcdefghij"))
				if err != nil {
					t.Errorf("write: %v", err)
				}
				done.Send(n)
			})
			var got []byte
			for len(got) < 20 {
				clock.Sleep(time.Second)
				if len(got) < 12 && done.Len() != 0 {
					t.Fatalf("Write returned with %d of 20 bytes taken and room for 8", len(got))
				}
				chunk := s.Take(nil, 100)
				if len(chunk) == 0 || len(chunk) > 8 {
					t.Fatalf("Take returned %d bytes, cap is 8", len(chunk))
				}
				got = append(got, chunk...)
			}
			if n, _ := done.Recv(); n != 20 || string(got) != "0123456789abcdefghij" {
				t.Fatalf("wrote %d, took %q", n, got)
			}
			if len(s.Take(nil, 100)) != 0 {
				t.Fatal("empty queue must Take nothing")
			}
		}},
		{"Fail releases a blocked Write; the queue still drains", 4, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			done := netem.NewChan[error](clock, 1)
			clock.Go(func() {
				n, err := s.Write([]byte("123456"))
				if n != 4 {
					t.Errorf("wrote %d before the close, want 4", n)
				}
				done.Send(err)
			})
			clock.Sleep(time.Second)
			s.Close()
			if err, _ := done.Recv(); !errors.Is(err, netem.ErrClosed) {
				t.Fatalf("blocked write: %v, want netem.ErrClosed", err)
			}
			if got := s.Take(nil, 100); string(got) != "1234" {
				t.Fatalf("Take after Close: %q", got)
			}
		}},
		{"EndWrite, then the peer's FIN", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Write([]byte("bye"))
			s.EndWrite()
			if s.WriteEnded() {
				t.Fatal("WriteEnded with bytes still queued")
			}
			if _, err := s.Write([]byte("more")); err == nil {
				t.Fatal("Write after EndWrite must fail")
			}
			if got := s.Take(nil, 100); string(got) != "bye" || !s.WriteEnded() {
				t.Fatalf("took %q, WriteEnded=%v", got, s.WriteEnded())
			}
			// The read side is still open until the peer's FIN, and
			// what it sent before the FIN drains first.
			if _, err := readNow(clock, s); err != netem.ErrTimeout {
				t.Fatalf("half-closed read: %v, want a timeout", err)
			}
			s.Deliver([]byte("last"))
			s.PeerFin(0)
			if got, err := readNow(clock, s); got != "last" || err != nil {
				t.Fatalf("before FIN: %q %v", got, err)
			}
			if _, err := readNow(clock, s); err != io.EOF {
				t.Fatalf("after FIN: %v, want io.EOF", err)
			}
		}},
		{"DeliverSeq: in order, gap, duplicate, FIN count", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.DeliverSeq(1, []byte("bb"))
			s.DeliverSeq(2, []byte("cc"))
			if _, err := readNow(clock, s); err != netem.ErrTimeout {
				t.Fatalf("gap at 0 must stall the stream, got %v", err)
			}
			s.DeliverSeq(0, []byte("aa"))
			s.DeliverSeq(0, []byte("zz")) // duplicate
			s.DeliverSeq(2, []byte("yy")) // stale
			if got, _ := readNow(clock, s); got != "aabbcc" {
				t.Fatalf("reassembly: %q", got)
			}
			// The FIN announces five units; EOF waits for all of them
			// however late they arrive.
			s.PeerFin(5)
			s.DeliverSeq(4, []byte("ee"))
			if _, err := readNow(clock, s); err != netem.ErrTimeout {
				t.Fatalf("FIN with a unit missing: %v, want a timeout", err)
			}
			s.DeliverSeq(3, []byte("dd"))
			if got, _ := readNow(clock, s); got != "ddee" {
				t.Fatalf("tail: %q", got)
			}
			if _, err := readNow(clock, s); err != io.EOF {
				t.Fatalf("all units in: %v, want io.EOF", err)
			}
		}},
		{"ReadFull wakes once, at the delivery that completes it", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			clock.Go(func() {
				for i := 1; i <= 4; i++ {
					clock.Sleep(10 * time.Millisecond)
					s.Deliver([]byte("abcd"))
				}
			})
			parks := clock.Stats().Parks
			buf := make([]byte, 14)
			n, err := s.ReadFull(buf)
			if n != 14 || err != nil || clock.Now() != 40*time.Millisecond || string(buf) != "abcdabcdabcdab" {
				t.Fatalf("ReadFull = %d %v %q at %v, want all 14 bytes at 40ms", n, err, buf[:n], clock.Now())
			}
			if parks = clock.Stats().Parks - parks; parks != 1 {
				t.Fatalf("ReadFull over 4 deliveries took %d parks, want 1", parks)
			}
			if got, err := readNow(clock, s); got != "cd" || err != nil {
				t.Fatalf("after ReadFull: %q %v, want the rest of the last delivery", got, err)
			}
		}},
		{"ReadFull returns what arrived at its deadline", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			clock.Go(func() {
				clock.Sleep(10 * time.Millisecond)
				s.Deliver([]byte("abc"))
			})
			s.SetReadTimeout(50 * time.Millisecond)
			buf := make([]byte, 8)
			n, err := s.ReadFull(buf)
			if n != 3 || err != netem.ErrTimeout || clock.Now() != 50*time.Millisecond || string(buf[:n]) != "abc" {
				t.Fatalf("ReadFull = %d %v %q at %v, want 3 bytes and netem.ErrTimeout at 50ms", n, err, buf[:n], clock.Now())
			}
		}},
		{"ReadFull returns what arrived with EOF after PeerFin", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			clock.Go(func() {
				clock.Sleep(10 * time.Millisecond)
				s.Deliver([]byte("abc"))
				clock.Sleep(10 * time.Millisecond)
				s.PeerFin(0)
			})
			buf := make([]byte, 8)
			n, err := s.ReadFull(buf)
			if n != 3 || err != io.EOF || clock.Now() != 20*time.Millisecond {
				t.Fatalf("ReadFull = %d %v at %v, want 3 bytes and io.EOF at 20ms", n, err, clock.Now())
			}
		}},
		{"ReadFull returns EOF at the delivery that ends the stream after PeerFin", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			// The FIN can overtake the last units (stegotorus's fan-out
			// conns): the delivery that completes the stream ends the
			// read, though the request is not full.
			clock.Go(func() {
				clock.Sleep(10 * time.Millisecond)
				s.PeerFin(2)
				clock.Sleep(10 * time.Millisecond)
				s.DeliverSeq(0, []byte("abc"))
				clock.Sleep(10 * time.Millisecond)
				s.DeliverSeq(1, []byte("de"))
			})
			buf := make([]byte, 8)
			n, err := s.ReadFull(buf)
			if n != 5 || err != io.EOF || clock.Now() != 30*time.Millisecond || string(buf[:n]) != "abcde" {
				t.Fatalf("ReadFull = %d %v %q at %v, want 5 bytes and io.EOF at 30ms", n, err, buf[:n], clock.Now())
			}
		}},
		{"ReadFull returns what arrived with EOF after Fail", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			clock.Go(func() {
				clock.Sleep(10 * time.Millisecond)
				s.Deliver([]byte("abc"))
				clock.Sleep(10 * time.Millisecond)
				s.Fail()
			})
			buf := make([]byte, 8)
			n, err := s.ReadFull(buf)
			if n != 3 || err != io.EOF || clock.Now() != 20*time.Millisecond {
				t.Fatalf("ReadFull = %d %v at %v, want 3 bytes and io.EOF at 20ms", n, err, clock.Now())
			}
		}},
		{"one Addr type", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			if a := s.LocalAddr(); a.Network() != "test" || a.String() != "here" {
				t.Fatalf("local addr %s/%s", a.Network(), a)
			}
			if a := s.RemoteAddr(); a.Network() != "test" || a.String() != "there" {
				t.Fatalf("remote addr %s/%s", a.Network(), a)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := netem.NewClock()
			t.Cleanup(clock.Shutdown)
			tc.run(t, clock, pt.NewStream(clock, "test", "here", "there", tc.outCap))
		})
	}
}

// TestStreamKeepsItsArrays moves 1 MiB through each half of a stream in
// 1 KiB units with the consumer one unit behind, so neither queue is
// ever empty: both must reuse their arrays, and Take the buffer it is
// handed, instead of allocating per unit.
func TestStreamKeepsItsArrays(t *testing.T) {
	clock := netem.NewClock()
	s := pt.NewStream(clock, "test", "a", "b", 64<<10)
	unit := make([]byte, 1<<10)
	for i := range unit {
		unit[i] = byte(i)
	}
	buf := make([]byte, len(unit))
	var moved int
	allocs := testing.AllocsPerRun(1, func() {
		s.Write(unit)
		s.Deliver(unit)
		for i := 0; i < 1024; i++ {
			s.Write(unit)
			buf = s.Take(buf, len(unit))
			moved += len(buf)
			s.Deliver(unit)
			n, _ := s.Read(buf[:len(unit)])
			moved += n
		}
	})
	if moved != 2*2<<20 { // AllocsPerRun runs the function twice
		t.Fatalf("moved %d bytes, want %d", moved, 2*2<<20)
	}
	if allocs > 16 {
		t.Fatalf("1 MiB through each half of a stream took %.0f allocations, want a handful", allocs)
	}
}
