package pt

import (
	"bytes"
	"slices"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// takeInto is Take as it was before it appended: into buf's array from
// its start, grown if too small. A framer then appended what it returned
// behind its header.
func takeInto(s *Stream, buf []byte, n int) []byte {
	n = min(n, s.unsent.Len())
	if n == 0 {
		return buf[:0]
	}
	buf = slices.Grow(buf[:0], n)[:n]
	s.unsent.TakeInto(buf)
	s.writers.Broadcast()
	return buf
}

// TestTakeAppends: over random queue states (bytes written up to the
// cap, a writer waiting at a full cap, EndWrite, Fail), limits and dst
// prefixes, Take(dst, n) returns what the old take followed by an append
// to dst returned, in dst's array when it has room and dst itself when
// nothing is taken, and leaves WriteEnded, the waiting writer's wake and
// the rest of the queue as the old take left them.
func TestTakeAppends(t *testing.T) {
	rng := sim.NewRand(68)
	for i := range 400 {
		clock := netem.NewClock()
		outCap := 1 + rng.Intn(40<<10)
		written := make([]byte, rng.Intn(outCap+1)*min(rng.Intn(4), 1)) // empty in a quarter
		RandFill(rng, written)
		endWrite, fail, blocked := rng.Intn(3) == 0, rng.Intn(5) == 0, rng.Intn(2) == 0
		var s [2]*Stream
		var woke [2]int
		for k := range s {
			s[k] = NewStream(clock, "test", "a", "b", outCap)
			s[k].Write(written)
			if blocked { // fill the cap and leave a writer waiting on it
				s[k].Write(make([]byte, outCap-len(written)))
				if _, _, done := s[k].WriteEvent([]byte("more"), func() { woke[k]++ }); done {
					t.Fatalf("case %d: a write to a full queue did not wait", i)
				}
			}
			if endWrite {
				s[k].EndWrite()
			}
			if fail {
				s[k].Fail()
			}
		}
		clock.Sleep(1) // run the wakes of EndWrite and Fail
		woke = [2]int{}

		l := rng.Intn(64)
		dst := make([]byte, l, l+rng.Intn(64)+rng.Intn(2)*2*outCap)
		RandFill(rng, dst)
		prefix := slices.Clone(dst)
		n := rng.Intn(2*outCap) * min(rng.Intn(4), 1) // 0 in a quarter
		got := s[0].Take(dst, n)
		want := append(prefix, takeInto(s[1], nil, n)...)
		clock.Sleep(1) // run the wakes of the takes
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: Take(%d-byte dst, %d) returned %d bytes, the old take and append %d", i, l, n, len(got), len(want))
		}
		if len(want) == l && (len(got) != l || cap(got) != cap(dst)) {
			t.Fatalf("case %d: nothing taken, and dst did not come back as it went in", i)
		}
		if cap(dst) >= len(want) && cap(dst) > 0 && &got[:1][0] != &dst[:1][0] {
			t.Fatalf("case %d: dst had room for %d bytes and Take left its array", i, len(want))
		}
		if s[0].WriteEnded() != s[1].WriteEnded() || woke[0] != woke[1] {
			t.Fatalf("case %d: WriteEnded %v and %d wakes, the old take %v and %d", i, s[0].WriteEnded(), woke[0], s[1].WriteEnded(), woke[1])
		}
		if rest, old := s[0].Take(nil, 2*outCap), takeInto(s[1], nil, 2*outCap); !bytes.Equal(rest, old) {
			t.Fatalf("case %d: the queue's rest is %d bytes, after the old take %d", i, len(rest), len(old))
		}
		clock.Shutdown()
	}
}
