package netem

import (
	"fmt"
	"strings"
)

// This file is the link-layer accounting substrate the simulation-torture
// suite (internal/simtest) audits worlds with. Every network keeps an
// Acct that counts dials, flows and the bytes entering and leaving its
// pipes; a Snapshot taken at a quiescent point must satisfy byte
// conservation — everything written into the network was delivered,
// dropped at a reader close, or is still buffered in flight. The
// buffered term is summed independently from the live pipes, so the
// counters and the pipe state cross-check each other: any code path
// that loses or double-counts a segment breaks the equation.

// Acct aggregates one network's link-layer counters. They are plain
// integers: simulation goroutines update them and Snapshot reads them
// on the same world's run token (the driver between campaigns, the
// metrics sampler's clock events on the driver), never from outside the
// world.
type Acct struct {
	// n holds the counters in the shape Snapshot returns them; its
	// BytesBuffered stays zero (Snapshot sums it from the pipes).
	n AcctSnapshot

	pipes []*pipe
	conns []*Conn
	// lists are the world's queue node lists (NodeClass.For).
	lists []interface {
		Out() int
		Slabs() int
		retire()
	}
}

// AcctSnapshot is a point-in-time copy of a network's accounting.
type AcctSnapshot struct {
	// Dials counts connection attempts that resolved an address and a
	// listener (i.e. reached the policy/establishment phase).
	Dials int64
	// DialsRefused counts dials refused by the installed policy.
	DialsRefused int64
	// ConnsOpened counts established conn endpoints (two per flow).
	ConnsOpened int64
	// ConnsClosed counts conn endpoints closed or aborted.
	ConnsClosed int64
	// SegmentsSent counts segments accepted into pipes.
	SegmentsSent int64
	// SegmentsFiltered counts policy FilterSegment consultations.
	SegmentsFiltered int64
	// BytesSent counts payload bytes accepted into pipes.
	BytesSent int64
	// BytesDelivered counts payload bytes read out of pipes.
	BytesDelivered int64
	// BytesDropped counts buffered bytes discarded by reader closes.
	BytesDropped int64
	// BytesBuffered sums the live pipes' in-flight bytes. It is computed
	// from the pipes themselves, not derived from the other counters —
	// that independence is what makes ConservationErr a real check.
	BytesBuffered int64
	// CellsQueued counts relay cells accepted into per-circuit output
	// queues (the tor relay scheduler's intake, maintained by
	// internal/tor): every such cell is later either flushed to its link
	// or dropped at circuit teardown.
	CellsQueued int64
	// CellsFlushed counts queued cells written to their links.
	CellsFlushed int64
	// CellsDropped counts queued cells discarded at circuit teardown.
	CellsDropped int64
}

func (a *Acct) addDial(refused bool) {
	a.n.Dials++
	if refused {
		a.n.DialsRefused++
	}
}

func (a *Acct) addConnsOpened(n int64) {
	a.n.ConnsOpened += n
}

func (a *Acct) addConnClosed() {
	a.n.ConnsClosed++
}

func (a *Acct) addSegmentFiltered() {
	a.n.SegmentsFiltered++
}

func (a *Acct) addSent(n int) {
	a.n.SegmentsSent++
	a.n.BytesSent += int64(n)
}

func (a *Acct) addDelivered(n int) {
	a.n.BytesDelivered += int64(n)
}

func (a *Acct) addDropped(n int) {
	if n > 0 {
		a.n.BytesDropped += int64(n)
	}
}

// AddCellsQueued counts relay cells accepted into scheduler queues.
// Exported (with its Flushed/Dropped siblings) because the queues live
// in internal/tor while the conservation audit lives here.
func (a *Acct) AddCellsQueued(n int64) {
	a.n.CellsQueued += n
}

// AddCellsFlushed counts queued relay cells written to their links.
func (a *Acct) AddCellsFlushed(n int64) {
	a.n.CellsFlushed += n
}

// AddCellsDropped counts queued relay cells discarded at teardown.
func (a *Acct) AddCellsDropped(n int64) {
	if n > 0 {
		a.n.CellsDropped += n
	}
}

// registerConn adds a conn to the leak-diagnostic registry. The
// registry self-prunes once closed conns dominate (same scheme as the
// censor's flow registry), so a long campaign holds O(live), not
// O(ever-created), conns.
func (a *Acct) registerConn(c *Conn) {
	if len(a.conns) >= 64 && len(a.conns)%64 == 0 {
		live := a.conns[:0]
		for _, cn := range a.conns {
			if !cn.Closed() {
				live = append(live, cn)
			}
		}
		for i := len(live); i < len(a.conns); i++ {
			a.conns[i] = nil
		}
		a.conns = live
	}
	a.conns = append(a.conns, c)
}

// OpenConnAddrs lists the "local→remote" endpoints of every conn not
// yet closed, in creation order — the leak checkers' diagnostic for
// naming exactly which flows outlived a campaign.
func (a *Acct) OpenConnAddrs() []string {
	var out []string
	for _, c := range a.conns {
		if !c.Closed() {
			out = append(out, c.local.host+"→"+c.remote.host)
		}
	}
	return out
}

// AbortHostConns aborts every open conn with an endpoint on the named
// host — the connection-level blast radius of a machine crash or link
// cut. Returns the number aborted.
func (a *Acct) AbortHostConns(host string) int {
	prefix := host + ":"
	return a.abortOpen(func(c *Conn) bool {
		return strings.HasPrefix(c.local.host, prefix) || strings.HasPrefix(c.remote.host, prefix)
	})
}

// AbortOpenConns aborts every conn the registry still lists as open:
// what World.Close does about the conns no unwinding frame owned
// (pooled, idle, held by an inline sink).
func (a *Acct) AbortOpenConns() {
	a.abortOpen(func(*Conn) bool { return true })
}

// abortOpen aborts the open conns that match and returns their number.
// Conns are visited in creation order, so the teardown sequence is
// deterministic on the virtual clock, and over a copy of the registry,
// which an abort's own cascade may prune.
func (a *Acct) abortOpen(match func(*Conn) bool) int {
	n := 0
	for _, c := range append([]*Conn(nil), a.conns...) {
		if !c.Closed() && match(c) {
			c.Abort()
			n++
		}
	}
	return n
}

// registerPipe adds a pipe to the registry the buffered sum walks.
// Pipes whose reader has closed are pruned on the same cadence as the
// conn registry: their buffered count is zero and can never grow again,
// so dropping them changes no snapshot.
func (a *Acct) registerPipe(p *pipe) {
	if len(a.pipes) >= 64 && len(a.pipes)%64 == 0 {
		live := a.pipes[:0]
		for _, lp := range a.pipes {
			if !lp.rclosed {
				live = append(live, lp)
			}
		}
		for i := len(live); i < len(a.pipes); i++ {
			a.pipes[i] = nil
		}
		a.pipes = live
	}
	a.pipes = append(a.pipes, p)
}

// Snapshot copies the counters and sums the live pipes' buffered bytes.
// Call it from the driver goroutine at a quiescent point (no other
// simulation goroutine running) for a consistent view.
func (a *Acct) Snapshot() AcctSnapshot {
	s := a.n
	for _, p := range a.pipes {
		s.BytesBuffered += int64(p.buffered)
	}
	return s
}

// NodesOut reports the queue nodes the world's lists have handed out
// and not got back: 0 once every queue is empty.
func (a *Acct) NodesOut() int {
	n := 0
	for _, l := range a.lists {
		n += l.Out()
	}
	return n
}

// NodeSlabs reports how many slabs of nodes the world's lists allocated.
func (a *Acct) NodeSlabs() int {
	n := 0
	for _, l := range a.lists {
		n += l.Slabs()
	}
	return n
}

// OpenConns reports flows opened and not yet closed.
func (s AcctSnapshot) OpenConns() int64 { return s.ConnsOpened - s.ConnsClosed }

// Sub returns the per-counter delta s − prev for two snapshots of the
// same Acct, prev taken earlier. Every counter field is monotone, so a
// negative delta can only mean the snapshots were swapped or belong to
// different networks: Sub clamps such fields to zero (an interval
// series must never go negative) and reports how many fields it had to
// clamp — the caller treats a non-zero count as a bug, not as data.
// BytesBuffered is a gauge, not a counter: the delta carries s's value
// unchanged and it never counts toward regressions.
func (s AcctSnapshot) Sub(prev AcctSnapshot) (AcctSnapshot, int) {
	regressions := 0
	sub := func(cur, old int64) int64 {
		if cur < old {
			regressions++
			return 0
		}
		return cur - old
	}
	d := AcctSnapshot{
		Dials:            sub(s.Dials, prev.Dials),
		DialsRefused:     sub(s.DialsRefused, prev.DialsRefused),
		ConnsOpened:      sub(s.ConnsOpened, prev.ConnsOpened),
		ConnsClosed:      sub(s.ConnsClosed, prev.ConnsClosed),
		SegmentsSent:     sub(s.SegmentsSent, prev.SegmentsSent),
		SegmentsFiltered: sub(s.SegmentsFiltered, prev.SegmentsFiltered),
		BytesSent:        sub(s.BytesSent, prev.BytesSent),
		BytesDelivered:   sub(s.BytesDelivered, prev.BytesDelivered),
		BytesDropped:     sub(s.BytesDropped, prev.BytesDropped),
		BytesBuffered:    s.BytesBuffered,
		CellsQueued:      sub(s.CellsQueued, prev.CellsQueued),
		CellsFlushed:     sub(s.CellsFlushed, prev.CellsFlushed),
		CellsDropped:     sub(s.CellsDropped, prev.CellsDropped),
	}
	return d, regressions
}

// Add returns the element-wise sum of two snapshots' counters; the
// BytesBuffered gauge takes o's (the later interval's) value. It is
// Sub's inverse over a sample series: summing every interval delta
// reconstructs the final cumulative snapshot.
func (s AcctSnapshot) Add(o AcctSnapshot) AcctSnapshot {
	return AcctSnapshot{
		Dials:            s.Dials + o.Dials,
		DialsRefused:     s.DialsRefused + o.DialsRefused,
		ConnsOpened:      s.ConnsOpened + o.ConnsOpened,
		ConnsClosed:      s.ConnsClosed + o.ConnsClosed,
		SegmentsSent:     s.SegmentsSent + o.SegmentsSent,
		SegmentsFiltered: s.SegmentsFiltered + o.SegmentsFiltered,
		BytesSent:        s.BytesSent + o.BytesSent,
		BytesDelivered:   s.BytesDelivered + o.BytesDelivered,
		BytesDropped:     s.BytesDropped + o.BytesDropped,
		BytesBuffered:    o.BytesBuffered,
		CellsQueued:      s.CellsQueued + o.CellsQueued,
		CellsFlushed:     s.CellsFlushed + o.CellsFlushed,
		CellsDropped:     s.CellsDropped + o.CellsDropped,
	}
}

// ConservationErr checks the snapshot's byte- and flow-conservation
// equations, returning a descriptive error on the first violation.
func (s AcctSnapshot) ConservationErr() error {
	if got := s.BytesDelivered + s.BytesDropped + s.BytesBuffered; got != s.BytesSent {
		return fmt.Errorf("netem: byte conservation violated: sent=%d but delivered=%d + dropped=%d + buffered=%d = %d",
			s.BytesSent, s.BytesDelivered, s.BytesDropped, s.BytesBuffered, got)
	}
	if s.ConnsClosed > s.ConnsOpened {
		return fmt.Errorf("netem: flow accounting violated: closed=%d > opened=%d", s.ConnsClosed, s.ConnsOpened)
	}
	if s.DialsRefused > s.Dials {
		return fmt.Errorf("netem: dial accounting violated: refused=%d > dials=%d", s.DialsRefused, s.Dials)
	}
	if s.BytesSent < 0 || s.BytesDelivered < 0 || s.BytesDropped < 0 || s.BytesBuffered < 0 {
		return fmt.Errorf("netem: negative byte counter: %+v", s)
	}
	return nil
}

// CellConservationErr checks the relay-cell scheduler equation: at a
// drained point (no circuit holds queued cells) every cell that entered
// a per-circuit output queue must have been flushed to its link or
// dropped at teardown. Unlike ConservationErr this only holds once the
// queues are empty, so it is a separate check the invariant suite
// applies after the drain sleep.
func (s AcctSnapshot) CellConservationErr() error {
	if s.CellsQueued < 0 || s.CellsFlushed < 0 || s.CellsDropped < 0 {
		return fmt.Errorf("netem: negative cell counter: queued=%d flushed=%d dropped=%d",
			s.CellsQueued, s.CellsFlushed, s.CellsDropped)
	}
	if got := s.CellsFlushed + s.CellsDropped; got != s.CellsQueued {
		return fmt.Errorf("netem: cell conservation violated: queued=%d but flushed=%d + dropped=%d = %d",
			s.CellsQueued, s.CellsFlushed, s.CellsDropped, got)
	}
	return nil
}

// Acct returns the network's accounting.
func (n *Network) Acct() *Acct { return &n.acct }
