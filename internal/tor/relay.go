package tor

import (
	"fmt"
	"math/rand"
	"slices"
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
	// SchedPolicy is the cell scheduler's circuit pick rule; the zero
	// value selects EWMA priority.
	SchedPolicy SchedPolicy
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
	links   []*link // those served, for DropQueues; the ended pruned every 64
	// exitBuf is what every exit pump reads its destination into. A pump
	// packages what it read into a cell in the event that read it, and a
	// read that waits reads nothing into it, so the pumps share one.
	exitBuf [MaxRelayData]byte
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
	r.sched = newCellScheduler(r.clock, cfg.Host.Network().Acct(), cfg.SchedPolicy, cfg.Bandwidth)
	ln.Serve(func(c *netem.Conn) { r.ServeConn(c) })
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
	r.cfg.Host.Network().Acct().AbortHostConns(r.cfg.Host.Name())
	return true
}

// DropQueues retires the relay's scheduler as a crash does, dropping and
// counting its queued cells, and returns their leases and every live
// link's pump cell to the world: testbed.World.Close calls it last but one.
func (r *Relay) DropQueues() {
	r.sched.stop()
	for _, l := range r.links {
		if l.at != ended {
			cellBufs.Put(r.clock, l.rd.base)
			l.at = ended
		}
	}
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
	sched := newCellScheduler(r.clock, r.cfg.Host.Network().Acct(), r.cfg.SchedPolicy, r.cfg.Bandwidth)
	r.retired = append(r.retired, r.sched)
	r.ln = ln
	r.sched = sched
	r.crashed = false
	ln.Serve(func(c *netem.Conn) { r.ServeConn(c) })
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
// is the guard). The link's pump runs inline on the caller's goroutine
// and goes on as clock events: ServeConn returns once it first waits.
func (r *Relay) ServeConn(conn netem.Stream) {
	// The link binds the current incarnation's scheduler once, so a
	// restart's fresh scheduler never sees calls from links that belong
	// to a crashed incarnation.
	fast, _ := conn.(*netem.Conn)
	l := &link{relay: r, sched: r.sched, conn: conn, fast: fast, wmu: netem.NewMutex(r.clock), circs: make(map[uint32]*relayCirc)}
	buf, base := getCellBuf(r.clock)
	l.rd = cellPump{r: l.conn, cell: buf, base: base, next: l.pump}
	if n := len(r.links); n >= 64 && n%64 == 0 {
		r.links = slices.DeleteFunc(r.links, func(o *link) bool { return o.at == ended })
	}
	r.links = append(r.links, l)
	l.pump()
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
// with DESTROY, and extended maps any non-CREATED reply to
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
	conn  netem.Stream // a bare netem conn or a PT server's stream
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

	// rd is the link's cell pump, its cell a lease kept for the life of
	// the link; a cell stays there until its handler is done. at is
	// where the pump is within it. A handler that waits goes on with the
	// circuit and relay cell it handles (rc.Data a view of rd.cell), the
	// exit stream of a DATA cell, the cell or view out under way to to
	// (under mu, if set), EXTEND's and BEGIN's dial, EXTEND's CREATED
	// read, or the circuits a teardown has still to destroy.
	rd       cellPump
	at       pumpStep
	circ     *relayCirc
	rc       RelayCell
	stream   *exitStream
	out      cellOut
	mu       *netem.Mutex
	to       netem.EventWriter
	dialed   *netem.Conn
	dialErr  error
	created  cellPump
	down     []*relayCirc
	dialedFn func(*netem.Conn, error) // dialDone, bound once
}

// A pumpStep is where a link's pump is: reading a cell, or at a step of
// its handler that can wait.
type pumpStep uint8

const (
	reading     pumpStep = iota
	writing              // out to to: CREATED, a forward, DATA, EXTEND's CREATE
	dialing              // EXTEND's or BEGIN's round trip
	awaiting             // EXTEND's CREATED
	destroying           // circ's destroy, begun by the pump
	tearingDown          // the link's circuits' destroys, once it has ended
	ended
)

// flushCell writes one scheduled cell without parking. Fast links
// (bare netem conns) take the zero-copy owned write inline — a cell is
// one segment, refused while a parked writer holds the conn. PT conns
// hand the cell to their flusher through an unbounded scheduler-aware
// queue (bounded in practice by the circuits' flow-control windows);
// the flusher, started with the queue, waits on real backpressure. false means the link cannot
// accept the cell this pass (retry next interval); true means the cell
// was consumed — written, handed off, or dropped against a dead link,
// whose pump is already tearing its circuits down (the retired
// blocking scheduler ignored those write errors the same way).
func (l *link) flushCell(s *cellScheduler, cell queuedCell) bool {
	if l.fast != nil {
		ok, _ := l.fast.TryWriteOwned(cell.buf, cell.base, cellBufs.Token())
		return ok
	}
	if l.flusher == nil {
		l.flusher = netem.NewChan[queuedCell](s.clock, 0)
		s.flushers = append(s.flushers, l.flusher)
		f := &flusher{l: l}
		f.next = f.run
		s.clock.ReadyEvent(f.next)
	}
	if !l.flusher.TrySend(cell) {
		cellBufs.Put(s.clock, cell.base)
	}
	return true
}

// A flusher writes the cells handed to a link's flusher queue, in
// order, each whole under the link write lock. It is a chain of clock
// events that makes the calls a writer loop on a goroutine made, where
// and when it made them: where the loop parked — on the empty queue,
// the lock or the conn's backpressure — it leaves its continuation
// (Chan.RecvEvent, then cellOut.sendEvent). Once the queue is closed it
// writes what is left in it, and ends.
type flusher struct {
	l    *link
	out  cellOut // the cell under way
	next func()  // run, bound once
}

func (f *flusher) run() {
	for {
		if f.out.base == nil {
			c, ok, done := f.l.flusher.RecvEvent(f.next)
			if !done || !ok {
				return
			}
			f.out = cellOut{buf: c.buf, base: c.base, clock: f.l.relay.clock}
		}
		if _, done := f.out.sendEvent(f.l.wmu, f.l.conn, nil, f.next); !done {
			return
		}
	}
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

// pump is the link's read loop as a chain of clock events. Its
// cellPump makes the Read calls io.ReadFull made, and each cell is
// handled inline in the one buffer (a forward's write copies it). Where
// the loop's handler parked — the CREATED write under wmu, a forward,
// an exit's DATA write, EXTEND's dial, CREATE write and CREATED read,
// BEGIN's dial, a destroy's DESTROY writes — the handler leaves pump in
// the parked goroutine's place, and no further cell is read until it is
// done, as the loop did. Once the link ends its circuits are torn down.
func (l *link) pump() {
	for {
		switch l.at {
		case reading:
			if whole, err := l.rd.read(); whole {
				l.handle()
			} else if err != nil {
				l.teardown()
			} else {
				return
			}
		case writing:
			err, done := l.out.sendEvent(l.mu, l.to, nil, l.rd.next)
			if !done {
				return
			}
			l.at = reading
			l.wrote(err)
		case dialing:
			if l.dialed == nil && l.dialErr == nil {
				return
			}
			l.at = reading
			if l.rc.Cmd == RelayExtend {
				l.fail(l.circ.extendDialed(l))
			} else {
				l.fail(l.circ.beginDialed(l))
			}
		case awaiting:
			whole, err := l.created.read()
			if !whole && err == nil {
				return
			}
			l.at = reading
			l.fail(l.circ.extended(l, whole))
			cellBufs.Put(l.relay.clock, l.created.base)
		case destroying:
			if !l.circ.finishDestroy() {
				return
			}
			l.at = reading
		case tearingDown:
			for ; len(l.down) > 0; l.down = l.down[1:] {
				if c := l.down[0]; l.circ != c {
					if l.circ = c; !c.destroy(false, true, l.rd.next) {
						return
					}
				} else if !c.finishDestroy() {
					return
				}
			}
			l.conn.Close()
			// Every queue feeding the flusher was just retired: closing
			// it lets it drain and end now rather than at scheduler
			// stop, which may close it again.
			if l.flusher != nil {
				l.flusher.Close()
			}
			cellBufs.Put(l.relay.clock, l.rd.base)
			l.at = ended
		case ended:
			return
		}
	}
}

// handle starts on the cell just read.
func (l *link) handle() {
	buf := l.rd.cell
	l.circ, l.rc = nil, RelayCell{}
	switch Command(buf[4]) {
	case CmdCreate:
		l.handleCreate()
	case CmdRelay:
		if l.circ = l.circs[wireCircID(buf)]; l.circ != nil {
			l.fail(l.circ.handleRelayWire(buf))
		}
	case CmdDestroy:
		if c := l.circs[wireCircID(buf)]; c != nil {
			l.destroy(c, false, true)
		}
	}
}

// write starts the handler's write of out to to, under mu if not nil.
func (l *link) write(mu *netem.Mutex, to netem.EventWriter) {
	l.mu, l.to, l.at = mu, to, writing
}

// wrote goes on with the handler whose write is done.
func (l *link) wrote(err error) {
	switch c := l.circ; {
	case c == nil: // CREATE's reply
		if err != nil {
			l.teardown()
		}
	case l.rc.Cmd == RelayData:
		l.fail(c.delivered(l.stream, err))
	case l.rc.Cmd == RelayExtend:
		l.fail(c.createSent(l, err))
	case err != nil: // a forward
		l.destroy(c, true, false)
	}
}

// fail destroys l.circ for a handler that failed.
func (l *link) fail(err error) {
	if err != nil {
		l.destroy(l.circ, true, false)
	}
}

// destroy begins c's destroy for the pump, which waits for it.
func (l *link) destroy(c *relayCirc, notifyUp, notifyDown bool) {
	if l.circ = c; !c.destroy(notifyUp, notifyDown, l.rd.next) {
		l.at = destroying
	}
}

// teardown ends the link: its circuits are destroyed in ID order, which
// keeps map iteration order out of the scheduler's wake-up sequence.
func (l *link) teardown() {
	for _, c := range l.circs {
		l.down = append(l.down, c)
	}
	sort.Slice(l.down, func(i, j int) bool { return l.down[i].id < l.down[j].id })
	l.circs = map[uint32]*relayCirc{}
	l.circ, l.at = nil, tearingDown
}

// dial dials addr for the cell's handler; the pump goes on once the
// round trip is over, at once or from dialDone.
func (l *link) dial(addr string) {
	if l.dialedFn == nil {
		l.dialedFn = l.dialDone
	}
	l.dialed, l.dialErr, _ = l.relay.cfg.Host.DialEvent(addr, l.dialedFn)
	l.at = dialing
}

func (l *link) dialDone(c *netem.Conn, err error) {
	l.dialed, l.dialErr = c, err
	l.pump()
}

func (l *link) handleCreate() {
	id := wireCircID(l.rd.cell)
	// A CREATE reusing a live circuit ID would cross-wire two circuits
	// (the map write below clobbers the old one while its handlers keep
	// running). Refuse it with a DESTROY and leave the existing circuit
	// untouched.
	if l.circs[id] != nil {
		l.out.lease(l.relay.clock, &Cell{CircID: id, Cmd: CmdDestroy})
		l.write(l.wmu, l.conn)
		return
	}
	hs := newHandshake(l.relay.rng)
	hc, err := hs.complete(wirePayload(l.rd.cell)[:HandshakeLen])
	if err != nil {
		l.teardown()
		return
	}
	circ := &relayCirc{
		link:       l,
		id:         id,
		crypto:     hc,
		q:          l.sched.newQueue(l, id),
		streams:    make(map[uint16]*exitStream),
		fcCond:     netem.NewCond(l.relay.clock),
		circPkgWin: circWindowInit,
		circDlvWin: circWindowInit,
	}
	l.circs[id] = circ

	reply := &Cell{CircID: id, Cmd: CmdCreated}
	copy(reply.Payload[:], hs[:])
	l.out.lease(l.relay.clock, reply)
	l.write(l.wmu, l.conn)
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

	// A destroy under way still has to write DESTROY downstream (then
	// close next) and upstream, each cell in out, and goes on with again,
	// its beginner's continuation.
	destroyDown, destroyUp bool
	out                    cellOut
	again                  func()
}

// handleRelayWire begins on one forward relay cell in its wire buffer,
// which the pump does not reuse until the handler is done. Recognized
// cells are handled in place: rc.Data is a view into buf (handlers that
// retain data — the DATA write, control replies — copy it). Any other
// cell is forwarded downstream, by the pump's write, which copies it.
func (c *relayCirc) handleRelayWire(buf []byte) error {
	p := wirePayload(buf)
	if rc, ok := parseRelayView(p); ok && c.crypto.checkForward(p) {
		return c.handleRecognized(rc)
	}
	if c.next == nil {
		return fmt.Errorf("tor: unrecognized relay cell at last hop")
	}
	setWireHeader(buf, c.nextID, CmdRelay)
	c.link.out = cellOut{buf: buf}
	c.link.write(nil, c.next)
	return nil
}

func (c *relayCirc) handleRecognized(rc RelayCell) error {
	c.link.rc = rc
	switch rc.Cmd {
	case RelayExtend:
		return c.handleExtend(rc)
	case RelayBegin:
		c.link.dial(string(rc.Data))
		return nil
	case RelayData:
		c.handleData(rc)
		return nil
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

// handleExtend dials the requested next relay; extendDialed, then
// extended, splice the circuit.
func (c *relayCirc) handleExtend(rc RelayCell) error {
	if len(rc.Data) < 1+HandshakeLen {
		return fmt.Errorf("tor: short EXTEND")
	}
	nameLen := int(rc.Data[0])
	if len(rc.Data) < 1+nameLen+HandshakeLen {
		return fmt.Errorf("tor: malformed EXTEND")
	}
	c.link.dial(string(rc.Data[1 : 1+nameLen]))
	return nil
}

// extendDialed sends the next hop the CREATE carrying the client's
// handshake half, or TRUNCATED back when the dial failed.
func (c *relayCirc) extendDialed(l *link) error {
	if l.dialErr != nil {
		return c.sendBackwardControl(RelayTruncated, nil)
	}
	// The downstream circuit ID is kept from here on; nothing reads it
	// while next is nil.
	data := l.rc.Data
	c.nextID = l.relay.randID(l)
	create := &Cell{CircID: c.nextID, Cmd: CmdCreate}
	copy(create.Payload[:], data[1+int(data[0]):][:HandshakeLen])
	l.out.lease(l.relay.clock, create)
	l.write(nil, l.dialed)
	return nil
}

// createSent reads the next hop's answer to the CREATE, or reports
// TRUNCATED back when the write failed.
func (c *relayCirc) createSent(l *link, err error) error {
	if err != nil {
		l.dialed.Close()
		return c.sendBackwardControl(RelayTruncated, nil)
	}
	buf, base := getCellBuf(l.relay.clock)
	l.created = cellPump{r: l.dialed, cell: buf, base: base, next: l.rd.next}
	l.at = awaiting
	return nil
}

// extended splices the circuit to the next hop once its CREATED has
// come (whole), and reports EXTENDED or TRUNCATED back.
func (c *relayCirc) extended(l *link, whole bool) error {
	if !whole || Command(l.created.cell[4]) != CmdCreated {
		l.dialed.Close()
		return c.sendBackwardControl(RelayTruncated, nil)
	}
	// Relays dial each other over the bare network, so the downstream
	// link is always a netem conn: its cells are queued at their arrival
	// instants on the clock's event dispatcher, with no relay goroutine
	// in the loop.
	c.next = l.dialed
	c.next.SetReadSink(c.backwardSink)

	return c.sendBackwardControl(RelayExtended, wirePayload(l.created.cell)[:HandshakeLen])
}

// backwardSink relays downstream→upstream cells with only their header
// rewritten; it is installed as the downstream conn's read sink once the
// circuit is spliced. It runs on the clock's event dispatcher and must
// never park: relay cells go straight into the scheduler queue, whose
// per-circuit FIFO keeps the counter order, and teardown goes to the run
// queue (destroyLater).
func (c *relayCirc) backwardSink(data []byte, base *[]byte, pool *sync.Pool, err error) {
	if err != nil {
		c.destroyLater(true, false)
		return
	}
	if len(c.bwdStage) == 0 && len(data) == CellSize {
		c.backwardCell(data, base, pool)
		return
	}
	restage(c.link.relay.clock, &c.bwdStage, data, base, pool, c.backwardCell)
}

// backwardCell processes one downstream wire cell, taking ownership of
// its buffer.
func (c *relayCirc) backwardCell(buf []byte, base *[]byte, pool *sync.Pool) {
	clock := c.link.relay.clock
	switch Command(buf[4]) {
	case CmdRelay:
		setWireHeader(buf, c.id, CmdRelay)
		var err error
		if pool == cellBufs.Token() {
			// The buffer is a cell lease (a scheduler flush upstream):
			// hand it to our queue as-is.
			err = c.link.sched.enqueueWire(c.q, buf, base)
		} else {
			nb, nbase := getCellBuf(clock)
			copy(nb, buf)
			clock.Recycle(pool, base)
			err = c.link.sched.enqueueWire(c.q, nb, nbase)
		}
		if err != nil {
			c.destroyLater(false, true)
		}
	case CmdDestroy:
		clock.Recycle(pool, base)
		c.destroyLater(true, false)
	default:
		clock.Recycle(pool, base)
	}
}

// sendBackwardControl originates a backward relay cell at this hop.
func (c *relayCirc) sendBackwardControl(cmd RelayCommand, data []byte) error {
	return c.sendBackward(RelayCell{Cmd: cmd, StreamID: 0, Data: data})
}

func (c *relayCirc) sendBackward(rc RelayCell) error {
	buf, base := getCellBuf(c.link.relay.clock)
	p := wirePayload(buf)
	if err := marshalRelayInto(p, &rc); err != nil {
		cellBufs.Put(c.link.relay.clock, base)
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

// beginDialed opens the exit stream on the conn BEGIN's dial gave, or
// ends it when the dial failed.
func (c *relayCirc) beginDialed(l *link) error {
	id := l.rc.StreamID
	if l.dialErr != nil {
		return c.sendBackward(RelayCell{Cmd: RelayEnd, StreamID: id})
	}
	s := &exitStream{
		circ:   c,
		id:     id,
		conn:   l.dialed,
		pkgWin: streamWindowInit,
		dlvWin: streamWindowInit,
	}
	if c.closed {
		l.dialed.Close()
		return nil
	}
	c.streams[id] = s
	if err := c.sendBackward(RelayCell{Cmd: RelayConnected, StreamID: id}); err != nil {
		return err
	}
	// The pump starts where a read loop's goroutine would have.
	s.next = s.pump
	c.link.relay.clock.ReadyEvent(s.next)
	return nil
}

// handleData delivers forward stream data to the exit connection, by
// the pump's write; delivered goes on once it is done.
func (c *relayCirc) handleData(rc RelayCell) {
	if s := c.streams[rc.StreamID]; s != nil {
		c.link.stream = s
		c.link.out = cellOut{buf: rc.Data}
		c.link.write(nil, s.conn)
	}
}

// delivered generates the deliver-window SENDMEs of a DATA cell written
// to s, or closes s if the write failed.
func (c *relayCirc) delivered(s *exitStream, err error) error {
	if err != nil {
		c.closeStream(s.id, true)
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

// destroy tears the circuit down, unless it is closed already;
// notifyUp sends DESTROY upstream, notifyDown sends DESTROY downstream.
// It is an event form: where a DESTROY's write waits it leaves again,
// and returns false; again's owner then goes on with finishDestroy.
func (c *relayCirc) destroy(notifyUp, notifyDown bool, again func()) (done bool) {
	if c.closed {
		return true
	}
	c.closed = true
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
	if c.next != nil {
		if notifyDown {
			c.destroyDown = true
			c.out.lease(c.link.relay.clock, &Cell{CircID: c.nextID, Cmd: CmdDestroy})
		} else {
			c.next.Close()
		}
	}
	c.destroyUp, c.again = notifyUp, again
	return c.finishDestroy()
}

// finishDestroy writes a destroy's DESTROY cells: false while one
// waits, with c.again queued.
func (c *relayCirc) finishDestroy() bool {
	if c.destroyDown {
		if _, done := c.out.sendEvent(nil, c.next, nil, c.again); !done {
			return false
		}
		c.destroyDown = false
		c.next.Close()
	}
	if c.destroyUp {
		if c.out.base == nil {
			c.out.lease(c.link.relay.clock, &Cell{CircID: c.id, Cmd: CmdDestroy})
		}
		if _, done := c.out.sendEvent(c.link.wmu, c.link.conn, nil, c.again); !done {
			return false
		}
		c.destroyUp = false
	}
	delete(c.link.circs, c.id)
	return true
}

// destroyLater runs destroy from the clock's run queue, where a
// goroutine spawned now would start: a read sink cannot wait for the
// DESTROY writes, and the destroy goes on as its own continuation.
func (c *relayCirc) destroyLater(notifyUp, notifyDown bool) {
	c.link.relay.clock.ReadyEvent(func() {
		if !c.closed {
			c.destroy(notifyUp, notifyDown, func() { c.finishDestroy() })
		}
	})
}

// exitStream pumps bytes from the destination back into the circuit.
type exitStream struct {
	circ *relayCirc
	id   uint16
	conn *netem.Conn

	pkgWin int
	dlvWin int
	closed bool

	// reading marks a read under way (into the relay's exitBuf), next
	// is pump, bound once.
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
		buf := c.link.relay.exitBuf[:]
		n, err, done := s.conn.ReadEvent(buf, s.next)
		if !done {
			return
		}
		s.reading = false
		if n > 0 {
			c.circPkgWin--
			s.pkgWin--
			if c.sendBackward(RelayCell{Cmd: RelayData, StreamID: s.id, Data: buf[:n]}) != nil {
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
