package tor

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"ptperf/internal/netem"
)

// This file implements the relay cell scheduler: per-circuit output
// queues for the backward (toward-client) direction, flushed by
// budgeted passes. Before it, relays forwarded cells
// first-come-first-served with a blocking write per cell, so relay-side
// contention — what a client measures through a guard depends on who
// else is queued there — was invisible in every report.
//
// The design follows KIST (Jansen & Traudt, "Never Been KIST"):
//
//   - Priority: each circuit carries an exponentially-decayed cell
//     count (tor's CircuitPriorityHalflife EWMA). Every pass picks the
//     circuit with the lowest decayed count, so bursty, quiet circuits
//     preempt bulk ones. SchedFIFO retains the oldest-cell-first
//     baseline for comparison experiments.
//   - Write budgeting: a pass flushes at most perPass cells
//     (derived from the relay's advertised bandwidth — KIST's global
//     write limit) and consults the downstream link's writable budget
//     (netem.Conn.WriteBudget — KIST's kernel-informed socket limit)
//     instead of issuing blind blocking writes, so one backlogged link
//     cannot head-of-line-block every other circuit of the relay.
//
// Flush passes are inline clock events (netem.Clock.EventAt), not a
// goroutine: enqueue arms at most one timer per relay per schedInterval
// (the armed flag batches arms across circuits), and the pass runs on
// the world's driver, in its dispatch loop, when the timer fires, writing
// cells with the non-parking zero-copy Conn.TryWriteOwned. A link that
// cannot take the write this pass is skipped — KIST semantics — and
// retried next interval. Links without the fast path (PT stream
// tunnels fed through ServeConn) get a lazily-started per-link flusher,
// a chain of clock events that waits out backpressure; handoff to it is
// an unbounded scheduler-aware queue, bounded in practice by the
// circuits' flow-control windows. Everything runs on the virtual
// clock, events and timers share one deterministically-ordered heap,
// and no wall-clock state exists — so same-seed runs stay
// byte-identical and -jobs N equivalence survives.

// SchedPolicy selects how the scheduler picks the next circuit.
type SchedPolicy int

const (
	// SchedEWMA picks the circuit with the lowest exponentially-decayed
	// recent cell count (tor's CircuitPriorityHalflife): interactive
	// circuits preempt bulk ones. This is the default.
	SchedEWMA SchedPolicy = iota
	// SchedFIFO picks the oldest queued cell across circuits — the
	// pre-KIST first-come-first-served baseline the contention
	// experiments compare against.
	SchedFIFO
)

func (p SchedPolicy) String() string {
	if p == SchedFIFO {
		return "fifo"
	}
	return "ewma"
}

const (
	// schedInterval is the scheduling pass cadence on the virtual
	// clock (KIST's sched run interval).
	schedInterval = 10 * time.Millisecond
	// schedHalflife is the EWMA decay half-life (tor's
	// CircuitPriorityHalflife consensus default).
	schedHalflife = 30 * time.Second
	// minCellsPerPass floors the per-pass cell count a slow relay's
	// bandwidth derives.
	minCellsPerPass = 4
)

// cellBufPool recycles wire buffers: backward cells are the
// simulation's hottest relay path, and a fresh 512-byte allocation per
// cell would churn the heap (same remedy as netem's segBufPool).
var cellBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, CellSize)
		return &b
	},
}

func putCellBuf(base *[]byte) { cellBufPool.Put(base) }

// queuedCell is one wire-ready cell awaiting flush. base retains the
// pooled backing array; buf is its encoded view.
type queuedCell struct {
	buf  []byte
	base *[]byte
	// at is the enqueue instant; flush time minus at is the cell's
	// queueing delay.
	at time.Duration
	// seq is the scheduler-wide enqueue sequence (FIFO pick order).
	seq uint64
}

// circQueue is one circuit's output queue plus its scheduling state.
type circQueue struct {
	link *link
	id   uint32

	// cells is a head-indexed queue: flushes advance head and enqueue
	// reuses the backing array (netem.Compact), instead of re-slicing
	// capacity away cell by cell.
	cells  []queuedCell
	head   int
	closed bool

	// EWMA cell count, decayed with the configured half-life.
	ewma   float64
	ewmaAt time.Duration

	// Accounting for the conservation invariant and the experiments.
	queued   int64
	flushed  int64
	dropped  int64
	delaySum time.Duration
	delays   DelayHist
}

// DelayHist is the distribution of a circuit's per-cell queueing
// delays, counted in power-of-two buckets of nanoseconds: bucket b
// holds the delays d with bits.Len64(d) == b, that is 0 for b = 0 and
// [2^(b-1), 2^b) above. Every flushed cell is counted, in place.
type DelayHist [64]int64

func (h *DelayHist) add(d time.Duration) { h[bits.Len64(uint64(d))]++ }

// decayTo ages the EWMA to virtual time now.
func (q *circQueue) decayTo(now, halflife time.Duration) {
	if now <= q.ewmaAt {
		return
	}
	if q.ewma > 0 {
		q.ewma *= math.Exp2(-float64(now-q.ewmaAt) / float64(halflife))
		if q.ewma < 1e-9 {
			q.ewma = 0
		}
	}
	q.ewmaAt = now
}

// cellScheduler is one relay's scheduler: the registry of circuit
// queues and the flush events draining them.
type cellScheduler struct {
	clock  *netem.Clock
	acct   *netem.Acct
	policy SchedPolicy
	// perPass caps how many cells one pass flushes across all circuits,
	// so the scheduler sustains the relay's advertised bandwidth:
	// ceil(bandwidth×schedInterval/CellSize), floored at minCellsPerPass.
	perPass int

	// active holds queues that may still receive cells, in creation
	// order (deterministic pick iteration); done retains closed queues
	// for the stats accessors.
	active  []*circQueue
	done    []*circQueue
	pending int
	enqSeq  uint64
	passes  int64
	closed  bool

	// armed marks a pending flush event; enqueues while armed add no
	// timer, so the relay arms at most one event per interval however
	// many circuits feed it. nextPass is the earliest instant the next
	// pass may run (pass pacing models the relayed-bandwidth rate).
	armed    bool
	nextPass time.Duration
	flushFn  func() // cached s.flushEvent bound method

	// flushers lists the slow-link writer queues in creation order
	// (deterministic stop); see link.flusher.
	flushers []*netem.Chan[queuedCell]
}

func newCellScheduler(clock *netem.Clock, acct *netem.Acct, policy SchedPolicy, bandwidth float64) *cellScheduler {
	perPass := max(int(math.Ceil(bandwidth*schedInterval.Seconds()/CellSize)), minCellsPerPass)
	s := &cellScheduler{clock: clock, acct: acct, policy: policy, perPass: perPass}
	s.flushFn = s.flushEvent // one closure, not one per arm
	return s
}

// newQueue registers a fresh circuit queue.
func (s *cellScheduler) newQueue(l *link, id uint32) *circQueue {
	q := &circQueue{link: l, id: id}
	if s.closed {
		q.closed = true
		return q
	}
	s.active = append(s.active, q)
	return q
}

// enqueueWire accepts one wire-ready cell into q, taking ownership of
// its pooled buffer (recycled on error). It never parks — relay
// backpressure is the flow-control windows' job — and fails only once
// the circuit (or the relay) has been torn down.
func (s *cellScheduler) enqueueWire(q *circQueue, buf []byte, base *[]byte) error {
	if s.closed || q.closed {
		putCellBuf(base)
		return ErrCircuitClosed
	}
	s.enqSeq++
	q.cells, q.head = netem.Compact(q.cells, q.head, 1)
	q.cells = append(q.cells, queuedCell{buf: buf, base: base, at: s.clock.Now(), seq: s.enqSeq})
	q.queued++
	s.pending++
	s.acct.AddCellsQueued(1)
	s.arm()
	return nil
}

// arm schedules the next flush event unless one is already armed:
// immediately when the pass cadence allows, at the pace boundary
// otherwise. A cell arriving after a quiet stretch is still flushed at
// once (its pass runs immediately; only the next one is paced) — the
// same cadence contract the retired scheduler goroutine kept.
func (s *cellScheduler) arm() {
	if s.armed || s.closed || s.pending == 0 {
		return
	}
	s.armed = true
	at := s.clock.Now()
	if at < s.nextPass {
		at = s.nextPass
	}
	s.clock.EventAt(at, s.flushFn)
}

// flushEvent is the inline flush pass, run on the dispatching goroutine
// when the armed timer fires. It must never park: writes go through
// link.flushCell.
func (s *cellScheduler) flushEvent() {
	s.armed = false
	if s.closed || s.pending == 0 {
		// The pending cells were dropped by a teardown between arm and
		// fire; nothing to do.
		return
	}
	now := s.clock.Now()
	s.flushPass()
	s.nextPass = now + schedInterval
	// Cells the pass could not flush (budget exhausted, unwritable
	// links) re-arm for the next interval.
	s.arm()
}

// retireQueue marks q closed, drops its pending cells (counted,
// buffers recycled) and moves it to the stats archive; the caller
// removes q from (or resets) s.active.
func (s *cellScheduler) retireQueue(q *circQueue) {
	q.closed = true
	for i := q.head; i < len(q.cells); i++ {
		putCellBuf(q.cells[i].base)
	}
	n := len(q.cells) - q.head
	q.cells = nil
	q.head = 0
	q.dropped += int64(n)
	s.pending -= n
	s.acct.AddCellsDropped(int64(n))
	s.done = append(s.done, q)
}

// closeQueue retires one circuit's queue at teardown.
func (s *cellScheduler) closeQueue(q *circQueue) {
	if q.closed {
		return
	}
	for i, a := range s.active {
		if a == q {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.retireQueue(q)
}

// stop shuts the scheduler down, retiring every queue and closing the
// slow-link flushers' queues (each flusher writes its handed-off cells,
// then ends).
func (s *cellScheduler) stop() {
	if s.closed {
		return
	}
	s.closed = true
	for _, q := range s.active {
		s.retireQueue(q)
	}
	s.active = nil
	for _, f := range s.flushers {
		f.Close()
	}
	s.flushers = nil
}

// flushPass flushes up to perPass cells, re-picking the best
// circuit before every cell. No write in the pass parks: fast links take the inline zero-copy
// path, slow links a flusher handoff, and a link whose window is full
// is excluded for the rest of the pass (it re-arms for the next one).
func (s *cellScheduler) flushPass() {
	// s.passes numbers this pass; with s it stamps each link's cached
	// budget (link.passBudget), so a new pass probes every link again.
	s.passes++
	for budget := s.perPass; budget > 0; {
		q := s.pick()
		if q == nil {
			return
		}
		l := q.link
		cell := q.cells[q.head]
		if !l.flushCell(s, cell) {
			// The link cannot take this write right now (writer lock
			// held by a parked writer, or less window than the budget
			// probe cached): spend its pass budget so other links'
			// circuits still flush, and retry next interval.
			l.passBudget = 0
			continue
		}
		q.cells[q.head] = queuedCell{}
		q.head++
		if q.head == len(q.cells) {
			q.cells = q.cells[:0]
			q.head = 0
		}
		s.pending--
		now := s.clock.Now()
		q.decayTo(now, schedHalflife)
		q.ewma++
		delay := now - cell.at
		q.flushed++
		q.delaySum += delay
		q.delays.add(delay)
		l.passBudget -= len(cell.buf)
		s.acct.AddCellsFlushed(1)
		budget--
	}
}

// pick returns the best flushable queue under the pass's link
// budgets, or nil when none is writable. A link's budget is probed once
// per pass, the first time one of its queues is looked at.
func (s *cellScheduler) pick() *circQueue {
	var best *circQueue
	now := s.clock.Now()
	for _, q := range s.active {
		if q.head == len(q.cells) {
			continue
		}
		l := q.link
		if l.passSched != s || l.pass != s.passes {
			l.passSched, l.pass = s, s.passes
			l.passBudget = l.writeBudget(s.perPass * CellSize)
		}
		if l.passBudget < CellSize {
			continue
		}
		if best == nil {
			best = q
			continue
		}
		if s.policy == SchedFIFO {
			if q.cells[q.head].seq < best.cells[best.head].seq {
				best = q
			}
			continue
		}
		q.decayTo(now, schedHalflife)
		best.decayTo(now, schedHalflife)
		if q.ewma < best.ewma || (q.ewma == best.ewma && q.cells[q.head].seq < best.cells[best.head].seq) {
			best = q
		}
	}
	return best
}

// SchedStats aggregates one relay's scheduler counters.
type SchedStats struct {
	// Queued / Flushed / Dropped count cells entering queues, written
	// to links, and discarded at teardown. At a drained point
	// Queued == Flushed + Dropped.
	Queued, Flushed, Dropped int64
	// Pending counts cells currently sitting in queues.
	Pending int64
	// DelaySum accumulates the queueing delay of every flushed cell.
	DelaySum time.Duration
	// Passes counts scheduling passes run.
	Passes int64
}

// MeanDelay is the mean queueing delay per flushed cell.
func (st SchedStats) MeanDelay() time.Duration {
	if st.Flushed == 0 {
		return 0
	}
	return st.DelaySum / time.Duration(st.Flushed)
}

// schedulers lists every scheduler incarnation, oldest first — crashed
// incarnations keep their counters, so stats are cumulative across
// crash/restart cycles.
func (r *Relay) schedulers() []*cellScheduler {
	out := make([]*cellScheduler, 0, len(r.retired)+1)
	out = append(out, r.retired...)
	return append(out, r.sched)
}

// SchedStats returns the relay scheduler's aggregate counters,
// cumulative across restarts.
func (r *Relay) SchedStats() SchedStats {
	var st SchedStats
	for _, s := range r.schedulers() {
		st.Passes += s.passes
		st.Pending += int64(s.pending)
		for _, qs := range [][]*circQueue{s.active, s.done} {
			for _, q := range qs {
				st.Queued += q.queued
				st.Flushed += q.flushed
				st.Dropped += q.dropped
				st.DelaySum += q.delaySum
			}
		}
	}
	return st
}
