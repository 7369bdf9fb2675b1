package pt_test

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// A Stream's read half is its netem.Inbox: the embedding must keep it a
// netem.Stream, threshold read and all.
var _ netem.Stream = (*pt.Stream)(nil)

// TestStreamConformance pins what the stream contract (streamtest) cannot
// see of the endpoint every tunnelled transport inherits: the write cap
// that Take relieves, the mechanism's half-close and FIN, reassembly by
// sequence number and the one Addr type.
func TestStreamConformance(t *testing.T) {
	cases := []struct {
		name   string
		outCap int
		run    func(t *testing.T, clock *netem.Clock, s *pt.Stream)
	}{
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
			s.SetReadTimeout(0)
			buf := make([]byte, 64)
			if _, err := s.Read(buf); err != netem.ErrTimeout {
				t.Fatalf("half-closed read: %v, want a timeout", err)
			}
			s.Deliver([]byte("last"))
			s.PeerFin(0)
			if n, err := s.Read(buf); string(buf[:n]) != "last" || err != nil {
				t.Fatalf("before FIN: %q %v", buf[:n], err)
			}
			if _, err := s.Read(buf); err != io.EOF {
				t.Fatalf("after FIN: %v, want io.EOF", err)
			}
		}},
		{"DeliverSeq: in order, gap, duplicate, FIN count", 16, func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.SetReadTimeout(0)
			buf := make([]byte, 64)
			s.DeliverSeq(1, []byte("bb"))
			s.DeliverSeq(2, []byte("cc"))
			if _, err := s.Read(buf); err != netem.ErrTimeout {
				t.Fatalf("gap at 0 must stall the stream, got %v", err)
			}
			s.DeliverSeq(0, []byte("aa"))
			s.DeliverSeq(0, []byte("zz")) // duplicate
			s.DeliverSeq(2, []byte("yy")) // stale
			if n, _ := s.Read(buf); string(buf[:n]) != "aabbcc" {
				t.Fatalf("reassembly: %q", buf[:n])
			}
			// The FIN announces five units; EOF waits for all of them
			// however late they arrive.
			s.PeerFin(5)
			s.DeliverSeq(4, []byte("ee"))
			if _, err := s.Read(buf); err != netem.ErrTimeout {
				t.Fatalf("FIN with a unit missing: %v, want a timeout", err)
			}
			s.DeliverSeq(3, []byte("dd"))
			if n, _ := s.Read(buf); string(buf[:n]) != "ddee" {
				t.Fatalf("tail: %q", buf[:n])
			}
			if _, err := s.Read(buf); err != io.EOF {
				t.Fatalf("all units in: %v, want io.EOF", err)
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
			n, err, _ := s.ReadFullEvent(buf, nil)
			if n != 5 || err != io.EOF || clock.Now() != 30*time.Millisecond || string(buf[:n]) != "abcde" {
				t.Fatalf("readFull = %d %v %q at %v, want 5 bytes and io.EOF at 30ms", n, err, buf[:n], clock.Now())
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
			buf = s.Take(buf[:0], len(unit))
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

// TestStreamWriteNeverRegrows writes 1 MiB ahead of a Take loop on a
// stream with meek's 256 KiB outCap and fails the stream once Write has
// returned, with a full queue still to take. The bytes must arrive in
// order, the last outCap of them taken after the Fail. The write half
// queues in chunks leased from its world and nowhere else, and every
// lease is back once drained: a second stream, in a world after the
// first closed as testbed.World.Close closes one, leases them all again
// and allocates under 8 KiB, less than one lease, where a queue in an
// array of the stream's own allocates at least one outCap.
func TestStreamWriteNeverRegrows(t *testing.T) {
	const total, outCap = 1 << 20, 256 << 10
	up := bytes.Repeat([]byte("write-half/"), total/11+1)[:total]
	got, buf := make([]byte, 0, total), make([]byte, 0, 4<<10)
	afterFail := 0
	run := func() {
		clock := netem.NewClock()
		defer func() {
			clock.Shutdown()
			clock.RetireBuffers()
		}()
		s := pt.NewStream(clock, "test", "a", "b", outCap)
		clock.Go(func() {
			if n, err := s.Write(up); n != total || err != nil {
				t.Errorf("Write: %d %v", n, err)
			}
			s.Fail()
		})
		got, afterFail = got[:0], 0
		for len(got) < total {
			failed := s.Closed()
			if buf = s.Take(buf[:0], cap(buf)); len(buf) == 0 {
				clock.Sleep(time.Millisecond)
			}
			if failed {
				afterFail += len(buf)
			}
			got = append(got, buf...)
		}
		if len(s.Take(buf[:0], 1)) != 0 || !s.Closed() {
			t.Fatal("the stream held more than was written, or never failed")
		}
	}
	run() // fills the reservoir
	grew := allocated(run)
	t.Logf("allocated %d bytes queueing %d through a %d-byte window", grew, total, outCap)
	if !bytes.Equal(got, up) {
		t.Fatal("the written bytes were taken out of order")
	}
	if afterFail != outCap {
		t.Errorf("%d bytes taken after Fail, want the full queue of %d", afterFail, outCap)
	}
	if grew > 8<<10 {
		t.Errorf("a second stream allocated %d bytes: the queue regrew or a lease never came back", grew)
	}
}
