// Package streamtest states netem.Stream's contract once, as cases that
// any connected pair of streams runs (Run), as
// golang.org/x/net/nettest.TestConn holds any net.Conn pair to one
// suite. Every stream type of a world has a row: a test named
// TestStreamContract and its type, which calls Run. Alter is the one
// double that changes what a stream's reads return. Only _test.go files
// import the package.
package streamtest

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"ptperf/internal/netem"
)

// MakePair makes a connected pair on a fresh clock: what a writes, b
// reads, and the other way round. Each call makes the same pair, so that
// a case's runs, one per form, see the same world; the world ends with
// the test.
type MakePair func(t *testing.T) (clock *netem.Clock, a, b netem.Stream)

// settle is long enough for every row's bytes to cross its pair.
const settle = 10 * time.Second

// cases are the contract. A case runs three times per seed and
// direction, each on a fresh pair (Run), with a writer goroutine on the
// pair's clock and the test as its reader; a Read loop takes bytes as
// they arrive, so a Close finds them taken, and that case runs twice.
var cases = []struct {
	name  string
	run   func(r *run)
	forms int
}{
	{"a threshold read wakes once with its n bytes", thresholdRead, 3},
	{"a stream that ends early returns what arrived, then io.EOF", endsEarly, 3},
	{"a read timeout returns what has arrived, and the next read carries on", readTimeout, 3},
	{"a Drop or Close keeps the count", closeKeepsCount, 2},
	{"CloseWrite half-closes", closeWrite, 3},
	{"a write after Close fails", writeAfterClose, 3},
	{"wall-clock deadlines are refused", wallClockRefused, 3},
}

// Run runs every case over pairs from newPair, in both directions and at
// two seeds: with the plain forms, with the event forms awaited through
// netem.Await, and with a loop of plain Reads for each threshold read.
// The runs must return the same bytes and errors at the same instants,
// so a threshold read ends when the byte completing it arrives, as a
// reader taking each byte as it comes would. The test must be named for
// the type of one of the pair's ends.
func Run(t *testing.T, newPair MakePair) {
	row := strings.ToLower(strings.TrimPrefix(t.Name(), "TestStreamContract"))
	typeName := func(s netem.Stream) string {
		name := fmt.Sprintf("%T", s)
		return strings.ToLower(name[strings.LastIndexByte(name, '.')+1:])
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				for _, swap := range []bool{false, true} {
					logs := make([][]string, c.forms)
					for form := range logs {
						clock, a, b := newPair(t)
						if typeName(a) != row && typeName(b) != row {
							t.Fatalf("%s runs the contract over %T and %T", t.Name(), a, b)
						}
						if swap {
							a, b = b, a
						}
						r := &run{t: t, clock: clock, w: a, r: b, form: form, rng: seed}
						c.run(r)
						if logs[form] = r.log; t.Failed() {
							return
						}
						if !slices.Equal(logs[0], logs[form]) {
							t.Fatalf("seed %d, swapped %v: form %d (event, Read loop) returned\n%s\nthe plain forms\n%s",
								seed, swap, form, strings.Join(logs[form], "\n"), strings.Join(logs[0], "\n"))
						}
					}
				}
			}
		})
	}
}

// run is one case's pair and what its calls returned.
type run struct {
	t     *testing.T
	clock *netem.Clock
	w, r  netem.Stream // the writer's end and the reader's
	form  int          // 0 plain, 1 event, 2 Read loops for threshold reads
	rng   uint64
	log   []string
}

// intn draws from [0, n) (splitmix64).
func (r *run) intn(n int) int {
	r.rng += 0x9e3779b97f4a7c15
	z := (r.rng ^ r.rng>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// data draws 1 to n stream bytes, none of them 0, so that a 0 in a
// read's buffer is a byte no read put there.
func (r *run) data(n int) []byte {
	p := make([]byte, 1+r.intn(n))
	for i := range p {
		p[i] = byte(1 + r.intn(255))
	}
	return p
}

// note logs what a call returned, and when.
func (r *run) note(op string, n int, err error) {
	r.log = append(r.log, fmt.Sprintf("%v %s %d %v", r.clock.Now(), op, n, err))
}

// read reads s into p in the run's form, a threshold read if full.
func (r *run) read(s netem.Stream, p []byte, full bool) (n int, err error) {
	read, op := s.ReadEvent, "read"
	if full {
		read, op = s.ReadFullEvent, "readfull"
	}
	switch {
	case r.form == 1:
		n, err = r.await(read, p)
	case r.form == 2 && full:
		for m := 0; n < len(p) && err == nil; n += m {
			m, err = s.Read(p[n:])
		}
	default:
		n, err, _ = read(p, nil)
	}
	r.note(op, n, err)
	return n, err
}

// write writes p to s in the run's form.
func (r *run) write(s netem.Stream, p []byte) (n int, err error) {
	if r.form == 1 {
		n, err = r.await(s.WriteEvent, p)
	} else {
		n, err = s.Write(p)
	}
	r.note("write", n, err)
	return n, err
}

// await drives an event form as a parked caller does: each turn's bytes
// count, again goes on with the rest of p, and comes no more once the
// form is done.
func (r *run) await(form func(p []byte, again func()) (int, error, bool), p []byte) (int, error) {
	n, finished := 0, false
	var done func(int, error)
	var again func()
	again = func() {
		if finished {
			r.t.Errorf("an event form's continuation ran after it was done")
		}
		m, err, ok := form(p[n:], again)
		if n += m; ok {
			finished = true
			done(n, err)
		}
	}
	return netem.Await(r.clock, func(d func(int, error)) (int, error, bool) {
		done = d
		m, err, ok := form(p, again)
		n, finished = m, ok
		return n, err, ok
	})
}

// writeCuts starts a writer of p to s in drawn cuts, each after a drawn
// pause of up to 2 ms, which then runs end, if any.
func (r *run) writeCuts(s netem.Stream, p []byte, end func()) {
	var cuts []int
	var pauses []time.Duration
	for rest := len(p); rest > 0; rest -= cuts[len(cuts)-1] {
		cuts = append(cuts, min(rest, 1+r.intn(1+r.intn(40<<10))))
		pauses = append(pauses, time.Duration(r.intn(2000))*time.Microsecond)
	}
	r.clock.Go(func() {
		for i, k := range cuts {
			r.clock.Sleep(pauses[i])
			if n, err := r.write(s, p[:k]); n != k || err != nil {
				r.t.Errorf("a write of %d bytes took %d, %v", k, n, err)
				return
			}
			p = p[k:]
		}
		if end != nil {
			end()
		}
	})
}

// readAll reads want with threshold reads of drawn sizes, each of which
// must return its n bytes.
func (r *run) readAll(want []byte) {
	for got := 0; got < len(want); {
		p := make([]byte, min(len(want)-got, 1+r.intn(24<<10)))
		if n, err := r.read(r.r, p, true); n != len(p) || err != nil || !bytes.Equal(p, want[got:got+n]) {
			r.t.Fatalf("a threshold read of %d at byte %d of %d returned %d, %v", len(p), got, len(want), n, err)
		}
		got += len(p)
	}
}

// thresholdRead: a threshold read returns once, with all n bytes it asks
// for, however the writer cut them.
func thresholdRead(r *run) {
	want := r.data(96 << 10)
	r.writeCuts(r.w, want, nil)
	r.readAll(want)
}

// endsEarly: a stream its writer ends, with CloseWrite where it has one,
// as pt.Splice ends one, or else Close, gives a threshold read past its
// end what arrived with io.EOF, and every read after that 0 and io.EOF,
// ahead of a read timeout that has passed too.
func endsEarly(r *run) {
	want := r.data(16 << 10)
	r.writeCuts(r.w, want, func() {
		if hc, ok := r.w.(interface{ CloseWrite() error }); ok {
			hc.CloseWrite()
		} else {
			r.w.Close()
		}
	})
	head := r.intn(len(want))
	r.readAll(want[:head])
	r.clock.Sleep(settle)
	r.r.SetReadTimeout(0)
	p := make([]byte, len(want)-head+1+r.intn(100))
	if n, err := r.read(r.r, p, true); n != len(want)-head || err != io.EOF || !bytes.Equal(p[:n], want[head:]) {
		r.t.Fatalf("a threshold read of %d past the %d bytes left returned %d, %v", len(p), len(want)-head, n, err)
	}
	for _, d := range []time.Duration{0, netem.NoTimeout} {
		r.r.SetReadTimeout(d)
		for _, full := range []bool{false, true} {
			if n, err := r.read(r.r, p, full); n != 0 || err != io.EOF {
				r.t.Fatalf("a read after the end, under a timeout of %v, returned %d, %v", d, n, err)
			}
		}
	}
}

// readTimeout: reads under drawn read timeouts, some at or below 0, give
// the bytes in order, and one that times out returns what it took with
// netem.ErrTimeout at the instant the timeout ends. A read after an idle
// timeout is cleared waits on and carries on.
func readTimeout(r *run) {
	want := r.data(96 << 10)
	r.writeCuts(r.w, want, nil)
	for got := 0; got < len(want); {
		d := time.Duration(r.intn(3500)-500) * time.Microsecond
		full := r.intn(4) != 0
		p := make([]byte, min(len(want)-got, 1+r.intn(24<<10)))
		r.r.SetReadTimeout(d)
		deadline := r.clock.Now() + max(d, 0)
		n, err := r.read(r.r, p, full)
		if !bytes.Equal(p[:n], want[got:got+n]) ||
			err == netem.ErrTimeout && (r.clock.Now() != deadline || full && n == len(p)) ||
			err != nil && err != netem.ErrTimeout || err == nil && (n == 0 || full && n < len(p)) {
			r.t.Fatalf("a read of %d (threshold %v) at byte %d, timing out at %v, returned %d, %v at %v", len(p), full, got, deadline, n, err, r.clock.Now())
		}
		got += n
	}
	p := make([]byte, 1+r.intn(100))
	r.r.SetReadTimeout(time.Duration(r.intn(1000)) * time.Millisecond)
	if n, err := r.read(r.r, p, true); n != 0 || err != netem.ErrTimeout || !err.(net.Error).Timeout() {
		r.t.Fatalf("an idle read under a timeout returned %d, %v, want a net.Error whose Timeout is true", n, err)
	}
	r.r.SetReadTimeout(netem.NoTimeout)
	r.clock.Go(func() {
		r.clock.Sleep(settle)
		r.writeCuts(r.w, want[:len(p)], nil)
	})
	if n, err := r.read(r.r, p, true); n != len(p) || err != nil || !bytes.Equal(p, want[:n]) {
		r.t.Fatalf("the read after a cleared timeout returned %d, %v", n, err)
	}
}

// closeKeepsCount: a Close of the reader's end ends a threshold read
// waiting for more than was written with an error, at once, every byte
// the read put into its buffer is in its count, and every read after it
// fails at once.
func closeKeepsCount(r *run) {
	want := r.data(16 << 10)
	p := make([]byte, len(want)+1+r.intn(100))
	r.writeCuts(r.w, want, nil)
	at := r.clock.Now() + settle
	r.clock.Go(func() {
		r.clock.Sleep(settle)
		r.r.Close()
	})
	n, err := r.read(r.r, p, true)
	if past := slices.ContainsFunc(p[n:], func(b byte) bool { return b != 0 }); err == nil || past || !bytes.Equal(p[:n], want[:n]) || r.clock.Now() != at {
		r.t.Fatalf("a threshold read ended by a Close at %v returned %d, %v at %v, with bytes past its count: %v", at, n, err, r.clock.Now(), past)
	}
	for _, full := range []bool{false, true} {
		if n, err := r.read(r.r, p, full); n != 0 || err == nil || r.clock.Now() != at {
			r.t.Fatalf("a read after Close returned %d, %v after %v", n, err, r.clock.Now()-at)
		}
	}
}

// closeWrite: where the writer's end has CloseWrite, the reader reads
// what came before it and then io.EOF, the writer's further writes fail,
// and the other direction stays open.
func closeWrite(r *run) {
	hc, ok := r.w.(interface{ CloseWrite() error })
	if !ok {
		return
	}
	want, back := r.data(16<<10), r.data(16<<10)
	r.writeCuts(r.w, want, func() { r.note("closewrite", 0, hc.CloseWrite()) })
	p := make([]byte, len(want)+1)
	if n, err := r.read(r.r, p, true); n != len(want) || err != io.EOF || !bytes.Equal(p[:n], want) {
		r.t.Fatalf("a threshold read past a CloseWrite returned %d of %d, %v", n, len(want), err)
	}
	if _, err := r.write(r.w, want[:1]); err == nil {
		r.t.Fatal("a write after CloseWrite succeeded")
	}
	r.writeCuts(r.r, back, nil)
	p = make([]byte, len(back))
	if n, err := r.read(r.w, p, true); n != len(back) || err != nil || !bytes.Equal(p, back) {
		r.t.Fatalf("the half-closed end read %d of %d, %v", n, len(back), err)
	}
}

// writeAfterClose: a write to a closed end fails, and its peer's read
// ends with an error, after none, some or all of what came before the
// Close.
func writeAfterClose(r *run) {
	want := r.data(16 << 10)
	late := want[:1+r.intn(len(want))]
	r.writeCuts(r.w, want, func() {
		r.note("close", 0, r.w.Close())
		if _, err := r.write(r.w, late); err == nil {
			r.t.Error("a write after Close succeeded")
		}
	})
	p := make([]byte, len(want)+1)
	if n, err := r.read(r.r, p, true); err == nil || !bytes.Equal(p[:n], want[:n]) {
		r.t.Fatalf("the peer of a closed end read %d of %d, %v", n, len(want), err)
	}
}

// wallClockRefused: net.Conn's three deadline setters refuse a
// wall-clock instant and keep the read timeout as it was.
func wallClockRefused(r *run) {
	d := time.Duration(r.intn(1000)) * time.Millisecond
	r.r.SetReadTimeout(d)
	deadline := r.clock.Now() + d
	// A fixed date stands in for time.Now().Add(d), which simlint bans.
	for _, at := range []time.Time{{}, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)} {
		for _, set := range []func(time.Time) error{r.r.SetDeadline, r.r.SetReadDeadline, r.r.SetWriteDeadline} {
			if err := set(at); err == nil {
				r.t.Fatalf("a wall-clock deadline %v was taken", at)
			}
		}
	}
	if n, err := r.read(r.r, make([]byte, 1), false); n != 0 || err != netem.ErrTimeout || r.clock.Now() != deadline {
		r.t.Fatalf("a read after the setters returned %d, %v at %v, the timeout ending at %v", n, err, r.clock.Now(), deadline)
	}
}
