package tor

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"

	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// DefaultORPort is the port relays listen on unless configured otherwise.
const DefaultORPort = 9001

// RelayConfig configures one relay process.
type RelayConfig struct {
	// Name is the unique nickname published to the directory.
	Name string
	// Host is the virtual machine the relay runs on. The host's link
	// capacity and background utilization model the relay's real load.
	Host *netem.Host
	// Directory receives the descriptor; required unless Unpublished.
	Directory *Directory
	// Flags are the relay's roles.
	Flags Flag
	// Bandwidth is the advertised selection weight in bytes per virtual
	// second. Zero defaults to the host's egress capacity.
	Bandwidth float64
	// Port overrides DefaultORPort.
	Port int
	// Seed makes handshake key generation deterministic.
	Seed int64
	// Unpublished relays (private bridges acting as guards for PT
	// servers) are reachable but never selected from the consensus.
	Unpublished bool
	// Sched tunes the relay cell scheduler (see SchedConfig); the zero
	// value selects EWMA priority with bandwidth-derived budgets.
	Sched SchedConfig
}

// Relay is a running onion router.
type Relay struct {
	cfg   RelayConfig
	desc  *Descriptor
	clock *netem.Clock

	rng *rand.Rand

	ln      *netem.Listener
	sched   *cellScheduler
	retired []*cellScheduler // schedulers of crashed incarnations (stats survive restarts)
	crashed bool
}

// StartRelay launches a relay and publishes its descriptor.
func StartRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.Host == nil {
		return nil, fmt.Errorf("tor: relay %q needs a host", cfg.Name)
	}
	if cfg.Port == 0 {
		cfg.Port = DefaultORPort
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = cfg.Host.Egress().Rate()
	}
	if cfg.Flags == 0 {
		cfg.Flags = FlagFast
	}
	ln, err := cfg.Host.Listen(cfg.Port)
	if err != nil {
		return nil, err
	}
	r := &Relay{
		cfg:   cfg,
		ln:    ln,
		clock: cfg.Host.Network().Clock(),
		rng:   sim.NewRand(cfg.Seed*2654435761 + 17),
		desc: &Descriptor{
			Name:      cfg.Name,
			Addr:      fmt.Sprintf("%s:%d", cfg.Host.Name(), cfg.Port),
			Flags:     cfg.Flags,
			Bandwidth: cfg.Bandwidth,
			Location:  cfg.Host.Location(),
		},
	}
	if !cfg.Unpublished {
		if cfg.Directory == nil {
			return nil, fmt.Errorf("tor: relay %q needs a directory (or Unpublished)", cfg.Name)
		}
		if err := cfg.Directory.Publish(r.desc); err != nil {
			ln.Close()
			return nil, err
		}
	}
	r.sched = newCellScheduler(r.clock, cfg.Host.Network().Acct(), cfg.Sched.Policy, cfg.Bandwidth)
	ln.Serve(r.ServeConn)
	return r, nil
}

// Descriptor returns the relay's directory entry (also for unpublished
// bridges, where it is handed to clients out of band).
func (r *Relay) Descriptor() *Descriptor { return r.desc }

// Host returns the virtual machine the relay runs on.
func (r *Relay) Host() *netem.Host { return r.cfg.Host }

// Name returns the relay's directory nickname. Names are unique within
// a world, so the metrics layer uses them as series labels.
func (r *Relay) Name() string { return r.cfg.Name }

// Crash models the relay process dying: the descriptor is withdrawn
// from the consensus, the listener closes, the scheduler drops every
// queued cell (Acct-counted), and every conn touching the relay's host
// is aborted — live links observe read errors and tear their circuits
// down exactly as they would for a real peer crash. Returns false if
// the relay was already crashed.
func (r *Relay) Crash() bool {
	if r.crashed {
		return false
	}
	r.crashed = true
	if !r.cfg.Unpublished && r.cfg.Directory != nil {
		r.cfg.Directory.Withdraw(r.cfg.Name)
	}
	r.ln.Close()
	r.sched.stop()
	r.cfg.Host.Network().AbortHostConns(r.cfg.Host.Name())
	return true
}

// Crashed reports whether the relay is currently crashed.
func (r *Relay) Crashed() bool { return r.crashed }

// Restart brings a crashed relay back: a fresh listener on the same
// port, a fresh cell scheduler (the crashed one is retired but keeps
// its cumulative stats), and the same descriptor republished — pinned
// descriptor pointers held by clients stay valid across the cycle.
func (r *Relay) Restart() error {
	if !r.crashed {
		return fmt.Errorf("tor: relay %q is not crashed", r.cfg.Name)
	}
	ln, err := r.cfg.Host.Listen(r.cfg.Port)
	if err != nil {
		return err
	}
	sched := newCellScheduler(r.clock, r.cfg.Host.Network().Acct(), r.cfg.Sched.Policy, r.cfg.Bandwidth)
	r.retired = append(r.retired, r.sched)
	r.ln = ln
	r.sched = sched
	r.crashed = false
	ln.Serve(r.ServeConn)
	if !r.cfg.Unpublished && r.cfg.Directory != nil {
		if err := r.cfg.Directory.Publish(r.desc); err != nil {
			return err
		}
	}
	return nil
}

// ServeConn runs the OR protocol on one inbound link. It is exported so
// pluggable-transport servers can hand obfuscated connections directly to
// a co-located relay (integration set 1 of the paper, where the PT server
// is the guard).
func (r *Relay) ServeConn(conn net.Conn) {
	// The link binds the current incarnation's scheduler once, so a
	// restart's fresh scheduler never sees calls from links that belong
	// to a crashed incarnation.
	fast, _ := conn.(*netem.Conn)
	l := &link{relay: r, sched: r.sched, conn: conn, fast: fast, wmu: netem.NewMutex(r.clock), circs: make(map[uint32]*relayCirc)}
	l.serve()
}

// uniqueID draws candidate circuit IDs from next (forced non-zero via
// the low bit) until one passes the used check. Extracted so the
// collision retry is testable with a scripted generator.
func uniqueID(next func() uint32, used func(uint32) bool) uint32 {
	for {
		if id := next() | 1; !used(id) {
			return id
		}
	}
}

// randID draws a circuit ID not live on link l (the upstream link the
// EXTEND arrived on — the namespace this relay can see). The ID is
// spent in a CREATE on a freshly dialed downstream conn, which today
// carries only that one circuit; if downstream conns are ever
// multiplexed, the authoritative collision guard is the *receiving*
// relay's duplicate-CREATE rejection (handleCreate answers a live ID
// with DESTROY, and handleExtend maps any non-CREATED reply to
// RelayTruncated), so a clash degrades to a failed extension, never a
// cross-wired circuit.
func (r *Relay) randID(l *link) uint32 {
	return uniqueID(r.rng.Uint32, func(id uint32) bool { return l != nil && l.circs[id] != nil })
}

// link is one upstream connection carrying circuits.
type link struct {
	relay *Relay
	// sched is the scheduler incarnation the link was accepted under;
	// its queues are retired with it, so a restarted relay's scheduler
	// never receives cells from a pre-crash link.
	sched *cellScheduler
	conn  net.Conn
	// fast is conn as a bare netem conn, nil for a PT conn: the flush
	// pass writes to it inline and probes its write budget.
	fast *netem.Conn

	// wmu serializes upstream cell writes; scheduler-aware because a
	// write can park on conn backpressure while other circuits contend.
	wmu *netem.Mutex

	// flusher is the slow-path scheduler writer queue, created lazily
	// for links whose conn lacks the
	// non-parking zero-copy write path — PT stream tunnels fed through
	// ServeConn. See link.flushCell.
	flusher *netem.Chan[queuedCell]

	// passBudget is the bytes this link may still take in the flush
	// pass stamped by (passSched, pass); a pass under another stamp
	// probes writeBudget afresh. See cellScheduler.pick.
	passSched  *cellScheduler
	pass       int64
	passBudget int

	circs map[uint32]*relayCirc
}

// writeCell writes one control cell (CREATED, DESTROY) directly to the
// link. Relay cells go through the scheduler queues instead.
func (l *link) writeCell(c *Cell) error {
	buf, base := getCellBuf()
	err := l.writeWire(c.Encode(buf[:0]))
	putCellBuf(base)
	return err
}

// flushCell writes one scheduled cell without parking. Fast links
// (bare netem conns) take the zero-copy owned write inline — a cell is
// one segment, refused while a parked writer holds the conn. PT conns
// hand the cell to their flusher through an unbounded scheduler-aware
// queue (bounded in practice by the circuits' flow-control windows);
// the flusher, started with the queue, waits on real backpressure. false means the link cannot
// accept the cell this pass (retry next interval); true means the cell
// was consumed — written, handed off, or dropped against a dead link,
// whose serve loop is already tearing its circuits down (the retired
// blocking scheduler ignored those write errors the same way).
func (l *link) flushCell(s *cellScheduler, cell queuedCell) bool {
	if l.fast != nil {
		ok, _ := l.fast.TryWriteOwned(cell.buf, cell.base, &cellBufPool)
		return ok
	}
	if l.flusher == nil {
		l.flusher = netem.NewChan[queuedCell](s.clock, 0)
		s.flushers = append(s.flushers, l.flusher)
		f := &flusher{l: l, w: l.conn.(netem.EventWriter)}
		f.next = f.run
		s.clock.ReadyEvent(f.next)
	}
	if !l.flusher.TrySend(cell) {
		putCellBuf(cell.base)
	}
	return true
}

// A flusher writes the cells handed to a link's flusher queue, in
// order, each whole under the link write lock. It is a chain of clock
// events that makes the calls a writer loop on a goroutine made, where
// and when it made them: where the loop parked — on the empty queue,
// the lock or the conn's backpressure — it leaves its continuation
// (Chan.RecvEvent, Mutex.LockEvent, the conn's WriteEvent). Once the
// queue is closed it writes what is left in it, and ends.
type flusher struct {
	l *link
	w netem.EventWriter
	// cell is the cell under way, cell.buf what is left of it to write;
	// locked marks the link write lock held for it.
	cell   queuedCell
	locked bool
	next   func() // run, bound once
}

func (f *flusher) run() {
	for {
		if f.cell.base == nil {
			c, ok, done := f.l.flusher.RecvEvent(f.next)
			if !done || !ok {
				return
			}
			f.cell = c
		}
		if !f.locked {
			if !f.l.wmu.LockEvent(f.next) {
				return
			}
			f.locked = true
		}
		k, _, done := f.w.WriteEvent(f.cell.buf, f.next)
		if f.cell.buf = f.cell.buf[k:]; !done {
			return
		}
		f.locked = false
		f.l.wmu.Unlock()
		putCellBuf(f.cell.base)
		f.cell = queuedCell{}
	}
}

// writeWire writes wire-ready bytes under the link write lock.
func (l *link) writeWire(buf []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	_, err := l.conn.Write(buf)
	return err
}

// writeBudget probes a fast link's writable budget in bytes. A PT
// link has no probe and reports def — effectively unlimited within one
// pass — and its flusher waits when the conn does back up.
func (l *link) writeBudget(def int) int {
	if l.fast != nil {
		return l.fast.WriteBudget()
	}
	return def
}

// serve is the upstream read loop. It reads every cell into one pooled
// wire buffer, kept for the life of the link: a forwarded cell is copied
// by the downstream conn's Write.
func (l *link) serve() {
	defer l.teardown()
	buf, base := getCellBuf()
	defer putCellBuf(base)
	for {
		if err := readWire(l.conn, buf); err != nil {
			return
		}
		switch Command(buf[4]) {
		case CmdPadding:
			// ignored
		case CmdCreate:
			var cell Cell
			if err := cell.Decode(buf); err != nil {
				return
			}
			if err := l.handleCreate(&cell); err != nil {
				return
			}
		case CmdRelay:
			circ := l.circs[wireCircID(buf)]
			if circ == nil {
				continue
			}
			if err := circ.handleRelayWire(buf); err != nil {
				circ.destroy(true, false)
			}
		case CmdDestroy:
			if circ := l.circs[wireCircID(buf)]; circ != nil {
				circ.destroy(false, true)
			}
		}
	}
}

func (l *link) teardown() {
	circs := make([]*relayCirc, 0, len(l.circs))
	for _, c := range l.circs {
		circs = append(circs, c)
	}
	// Deterministic teardown order (map iteration order must not leak
	// into the scheduler's wake-up sequence).
	sort.Slice(circs, func(i, j int) bool { return circs[i].id < circs[j].id })
	l.circs = map[uint32]*relayCirc{}
	for _, c := range circs {
		c.destroy(false, true)
	}
	l.conn.Close()
	// Retire the slow-path flusher with the link: every queue feeding it
	// was just retired, so closing here lets the flusher drain and end
	// instead of waiting until scheduler stop. Close is idempotent —
	// stop() may close it again via s.flushers.
	if l.flusher != nil {
		l.flusher.Close()
	}
}

func (l *link) handleCreate(cell *Cell) error {
	// A CREATE reusing a live circuit ID would cross-wire two circuits
	// (the map write below clobbers the old one while its goroutines
	// keep running). Refuse it with a DESTROY and leave the existing
	// circuit untouched.
	if l.circs[cell.CircID] != nil {
		return l.writeCell(&Cell{CircID: cell.CircID, Cmd: CmdDestroy})
	}
	hs := newHandshake(l.relay.rng)
	hc, err := hs.complete(cell.Payload[:HandshakeLen])
	if err != nil {
		return err
	}
	circ := &relayCirc{
		link:       l,
		id:         cell.CircID,
		crypto:     hc,
		q:          l.sched.newQueue(l, cell.CircID),
		streams:    make(map[uint16]*exitStream),
		fcCond:     netem.NewCond(l.relay.clock),
		circPkgWin: circWindowInit,
		circDlvWin: circWindowInit,
	}
	l.circs[cell.CircID] = circ

	reply := &Cell{CircID: cell.CircID, Cmd: CmdCreated}
	copy(reply.Payload[:], hs[:])
	return l.writeCell(reply)
}

// relayCirc is this relay's view of one circuit.
type relayCirc struct {
	link   *link
	id     uint32
	crypto *hopCrypto
	// q is the circuit's output queue in the relay's cell scheduler;
	// every backward (toward-client) relay cell goes through it.
	q *circQueue

	next    *netem.Conn // downstream link, nil while last hop
	nextID  uint32
	streams map[uint16]*exitStream
	closed  bool
	// bwdStage reassembles downstream bytes into cells in backwardSink
	// when a segment boundary does not fall on a cell boundary. Only the
	// sink (serialized by the event dispatcher) touches it.
	bwdStage []byte

	// Backward (towards client) flow control.
	fcCond     *netem.Cond
	circPkgWin int
	// Forward delivery accounting for SENDME generation.
	circDlvWin int
}

// handleRelayWire processes one forward relay cell in its wire buffer,
// which the serve goroutine does not reuse until it returns. Recognized
// cells are handled in place: rc.Data is a view into buf (handlers that
// retain data — s.conn.Write, control replies — copy it synchronously).
// Any other cell is forwarded downstream with Write, which copies it.
func (c *relayCirc) handleRelayWire(buf []byte) error {
	p := wirePayload(buf)
	if rc, ok := parseRelayView(p); ok && c.crypto.checkForward(p) {
		return c.handleRecognized(rc)
	}
	next, nextID := c.next, c.nextID
	if next == nil {
		return fmt.Errorf("tor: unrecognized relay cell at last hop")
	}
	setWireHeader(buf, nextID, CmdRelay)
	_, err := next.Write(buf)
	return err
}

func (c *relayCirc) handleRecognized(rc RelayCell) error {
	switch rc.Cmd {
	case RelayExtend:
		return c.handleExtend(rc)
	case RelayBegin:
		return c.handleBegin(rc)
	case RelayData:
		return c.handleData(rc)
	case RelayEnd:
		c.closeStream(rc.StreamID, false)
		return nil
	case RelaySendme:
		c.handleSendme(rc.StreamID)
		return nil
	default:
		return fmt.Errorf("tor: unexpected relay command %v", rc.Cmd)
	}
}

// handleExtend dials the requested next relay and splices the circuit.
func (c *relayCirc) handleExtend(rc RelayCell) error {
	if len(rc.Data) < 1+HandshakeLen {
		return fmt.Errorf("tor: short EXTEND")
	}
	nameLen := int(rc.Data[0])
	if len(rc.Data) < 1+nameLen+HandshakeLen {
		return fmt.Errorf("tor: malformed EXTEND")
	}
	addr := string(rc.Data[1 : 1+nameLen])
	clientPub := rc.Data[1+nameLen : 1+nameLen+HandshakeLen]

	conn, err := c.link.relay.cfg.Host.Dial(addr)
	if err != nil {
		return c.sendBackwardControl(RelayTruncated, nil)
	}
	nextID := c.link.relay.randID(c.link)
	create := &Cell{CircID: nextID, Cmd: CmdCreate}
	copy(create.Payload[:], clientPub)
	if err := WriteCell(conn, create); err != nil {
		conn.Close()
		return c.sendBackwardControl(RelayTruncated, nil)
	}
	var created Cell
	if err := ReadCell(conn, &created); err != nil || created.Cmd != CmdCreated {
		conn.Close()
		return c.sendBackwardControl(RelayTruncated, nil)
	}

	// Relays dial each other over the bare network, so the downstream
	// link is always a netem conn: its cells are queued at their arrival
	// instants on the clock's event dispatcher, with no relay goroutine
	// in the loop.
	c.next = conn.(*netem.Conn)
	c.nextID = nextID
	c.next.SetReadSink(c.backwardSink)

	return c.sendBackwardControl(RelayExtended, created.Payload[:HandshakeLen])
}

// backwardSink relays downstream→upstream cells with only their header
// rewritten; it is installed as the downstream conn's read sink once the
// circuit is spliced. It runs on the clock's event dispatcher and must
// never park: relay cells go straight into the scheduler queue, whose
// per-circuit FIFO keeps the counter order, and teardown — which does
// park — is handed to a fresh goroutine.
func (c *relayCirc) backwardSink(data []byte, base *[]byte, pool *sync.Pool, err error) {
	if err != nil {
		c.link.relay.clock.Go(func() { c.destroy(true, false) })
		return
	}
	if len(c.bwdStage) == 0 && len(data) == CellSize {
		c.backwardCell(data, base, pool)
		return
	}
	restage(&c.bwdStage, data, base, pool, c.backwardCell)
}

// backwardCell processes one downstream wire cell, taking ownership of
// its buffer.
func (c *relayCirc) backwardCell(buf []byte, base *[]byte, pool *sync.Pool) {
	switch Command(buf[4]) {
	case CmdRelay:
		setWireHeader(buf, c.id, CmdRelay)
		var err error
		if pool == &cellBufPool {
			// The buffer came out of the cell pool (a scheduler flush
			// upstream): hand it to our queue as-is.
			err = c.link.sched.enqueueWire(c.q, buf, base)
		} else {
			nb, nbase := getCellBuf()
			copy(nb, buf)
			if base != nil && pool != nil {
				pool.Put(base)
			}
			err = c.link.sched.enqueueWire(c.q, nb, nbase)
		}
		if err != nil {
			c.link.relay.clock.Go(func() { c.destroy(false, true) })
		}
	case CmdDestroy:
		if base != nil && pool != nil {
			pool.Put(base)
		}
		c.link.relay.clock.Go(func() { c.destroy(true, false) })
	default:
		if base != nil && pool != nil {
			pool.Put(base)
		}
	}
}

// sendBackwardControl originates a backward relay cell at this hop.
func (c *relayCirc) sendBackwardControl(cmd RelayCommand, data []byte) error {
	return c.sendBackward(RelayCell{Cmd: cmd, StreamID: 0, Data: data})
}

func (c *relayCirc) sendBackward(rc RelayCell) error {
	buf, base := getCellBuf()
	p := wirePayload(buf)
	if err := marshalRelayInto(p, &rc); err != nil {
		putCellBuf(base)
		return err
	}
	// Seal and enqueue without a park in between, so digest counters
	// stay in the order the client will observe; the scheduler flushes
	// each circuit's queue in enqueue order, so wire order matches
	// counter order.
	c.crypto.sealBackward(p)
	setWireHeader(buf, c.id, CmdRelay)
	return c.link.sched.enqueueWire(c.q, buf, base)
}

// handleBegin opens the exit connection for a new stream.
func (c *relayCirc) handleBegin(rc RelayCell) error {
	target := string(rc.Data)
	conn, err := c.link.relay.cfg.Host.Dial(target)
	if err != nil {
		return c.sendBackward(RelayCell{Cmd: RelayEnd, StreamID: rc.StreamID})
	}
	s := &exitStream{
		circ:   c,
		id:     rc.StreamID,
		conn:   conn.(*netem.Conn),
		pkgWin: streamWindowInit,
		dlvWin: streamWindowInit,
	}
	if c.closed {
		conn.Close()
		return nil
	}
	c.streams[rc.StreamID] = s
	if err := c.sendBackward(RelayCell{Cmd: RelayConnected, StreamID: rc.StreamID}); err != nil {
		return err
	}
	// The pump starts where a read loop's goroutine would have.
	s.buf = make([]byte, MaxRelayData)
	s.next = s.pump
	c.link.relay.clock.ReadyEvent(s.next)
	return nil
}

// handleData delivers forward stream data to the exit connection and
// generates deliver-window SENDMEs.
func (c *relayCirc) handleData(rc RelayCell) error {
	s := c.streams[rc.StreamID]
	if s == nil {
		return nil
	}
	if _, err := s.conn.Write(rc.Data); err != nil {
		c.closeStream(rc.StreamID, true)
		return nil
	}
	// Circuit-level deliver window.
	c.circDlvWin--
	sendCirc := false
	if c.circDlvWin <= circWindowInit-circWindowInc {
		c.circDlvWin += circWindowInc
		sendCirc = true
	}
	s.dlvWin--
	sendStream := false
	if s.dlvWin <= streamWindowInit-streamWindowInc {
		s.dlvWin += streamWindowInc
		sendStream = true
	}
	if sendCirc {
		if err := c.sendBackward(RelayCell{Cmd: RelaySendme}); err != nil {
			return err
		}
	}
	if sendStream {
		if err := c.sendBackward(RelayCell{Cmd: RelaySendme, StreamID: s.id}); err != nil {
			return err
		}
	}
	return nil
}

// handleSendme replenishes backward package windows.
func (c *relayCirc) handleSendme(streamID uint16) {
	if streamID == 0 {
		c.circPkgWin += circWindowInc
	} else {
		if s := c.streams[streamID]; s != nil {
			s.pkgWin += streamWindowInc
		}
	}
	c.fcCond.Broadcast()
}

func (c *relayCirc) closeStream(id uint16, notifyClient bool) {
	s := c.streams[id]
	delete(c.streams, id)
	if s == nil {
		return
	}
	s.conn.Close()
	s.closed = true
	c.fcCond.Broadcast()
	if notifyClient {
		c.sendBackward(RelayCell{Cmd: RelayEnd, StreamID: id})
	}
}

// destroy tears the circuit down; notifyUp sends DESTROY upstream,
// notifyDown sends DESTROY downstream.
func (c *relayCirc) destroy(notifyUp, notifyDown bool) {
	if c.closed {
		return
	}
	c.closed = true
	next := c.next
	nextID := c.nextID
	streams := make([]*exitStream, 0, len(c.streams))
	for _, s := range c.streams {
		streams = append(streams, s)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })
	c.streams = map[uint16]*exitStream{}
	c.fcCond.Broadcast()

	// Drop the circuit's queued cells (counted as dropped) before any
	// DESTROY goes out: a torn-down circuit's backlog must not outlive
	// it in the scheduler.
	c.link.sched.closeQueue(c.q)

	for _, s := range streams {
		s.conn.Close()
	}
	if next != nil {
		if notifyDown {
			WriteCell(next, &Cell{CircID: nextID, Cmd: CmdDestroy})
		}
		next.Close()
	}
	if notifyUp {
		c.link.writeCell(&Cell{CircID: c.id, Cmd: CmdDestroy})
	}
	delete(c.link.circs, c.id)
}

// exitStream pumps bytes from the destination back into the circuit.
type exitStream struct {
	circ *relayCirc
	id   uint16
	conn *netem.Conn

	pkgWin int
	dlvWin int
	closed bool

	// buf is what the pump reads the destination into; reading marks a
	// read under way, next is pump, bound once.
	buf     []byte
	reading bool
	next    func()
}

// pump reads from the destination and packages RELAY_DATA cells while
// the circuit and stream package windows are open. It is a chain of
// clock events that makes the calls a read loop on a goroutine made,
// where and when it made them: where the loop waited for a window or
// parked in Read, it leaves its continuation (Cond.WaitEvent,
// Conn.ReadEvent). It ends when the stream or the circuit closes.
func (s *exitStream) pump() {
	c := s.circ
	for {
		for !s.reading {
			if s.closed || c.closed {
				return
			}
			if c.circPkgWin > 0 && s.pkgWin > 0 {
				s.reading = true
			} else if c.fcCond.WaitEvent(s.next) {
				return
			}
		}
		n, err, done := s.conn.ReadEvent(s.buf, s.next)
		if !done {
			return
		}
		s.reading = false
		if n > 0 {
			c.circPkgWin--
			s.pkgWin--
			if c.sendBackward(RelayCell{Cmd: RelayData, StreamID: s.id, Data: s.buf[:n]}) != nil {
				return
			}
		}
		if err != nil {
			// closeStream (not a bare map delete) so the exit-side conn
			// to the target is closed too — leaving it open leaked one
			// flow per completed stream.
			c.closeStream(s.id, true)
			return
		}
	}
}

// encodeExtend builds the RELAY_EXTEND payload: len-prefixed next-hop
// address plus the client handshake.
func encodeExtend(addr string, pub []byte) []byte {
	out := make([]byte, 0, 1+len(addr)+len(pub))
	out = append(out, byte(len(addr)))
	out = append(out, addr...)
	out = append(out, pub...)
	return out
}
