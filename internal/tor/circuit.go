package tor

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"ptperf/internal/netem"
)

// circuit is the client's view of one 3-hop circuit.
type circuit struct {
	client *Client
	conn   netem.Stream
	path   Path
	id     uint32

	// sendMu makes "seal, write" atomic so hop digest counters observe
	// cells in wire order. It is scheduler-aware because the write can
	// park on conn backpressure.
	sendMu *netem.Mutex

	hops       []*hopCrypto
	streams    map[uint16]*Stream
	nextStream uint16
	closed     bool
	closeErr   error

	control *netem.Chan[RelayCell] // EXTENDED / TRUNCATED during build

	// rdStage reassembles backward bytes into cells in cellSink when a
	// segment boundary does not fall on a cell boundary. Only the sink
	// (serialized by the event dispatcher) touches it.
	rdStage []byte
	// rd is a PT first hop's cell pump; its continuation is pump.
	rd cellPump

	fcCond     *netem.Cond
	circPkgWin int // forward-data budget toward the exit
	circDlvWin int // backward-data accounting for SENDME generation
}

func newCircuit(client *Client, conn netem.Stream, path Path) *circuit {
	circ := &circuit{
		client:     client,
		conn:       conn,
		path:       path,
		streams:    make(map[uint16]*Stream),
		control:    netem.NewChan[RelayCell](client.clock, 4),
		sendMu:     netem.NewMutex(client.clock),
		circPkgWin: circWindowInit,
		circDlvWin: circWindowInit,
	}
	circ.fcCond = netem.NewCond(client.clock)
	return circ
}

func (circ *circuit) isClosed() bool {
	return circ.closed
}

// build performs CREATE + 2×EXTEND.
func (circ *circuit) build() error {
	c := circ.client
	circ.id = c.rng.Uint32() | 1
	hs := newHandshake(c.rng)

	create := &Cell{CircID: circ.id, Cmd: CmdCreate}
	copy(create.Payload[:], hs[:])
	if err := WriteCell(circ.conn, create); err != nil {
		return err
	}
	// The CREATED wait is bounded like every other build step: lossy
	// first hops (a camoufler message drop, a dying snowflake proxy)
	// can otherwise stall this read forever.
	circ.conn.SetReadTimeout(c.cfg.BuildTimeout)
	var created Cell
	if err := ReadCell(circ.conn, &created); err != nil {
		return fmt.Errorf("tor: waiting for CREATED: %w", err)
	}
	circ.conn.SetReadTimeout(netem.NoTimeout)
	if created.Cmd != CmdCreated || created.CircID != circ.id {
		return fmt.Errorf("tor: unexpected %v during create", created.Cmd)
	}
	hop, err := hs.complete(created.Payload[:HandshakeLen])
	if err != nil {
		return err
	}
	circ.hops = append(circ.hops, hop)

	if oc, ok := circ.conn.(*netem.Conn); ok {
		// Vanilla-tor first hop: demultiplex backward cells inline at
		// their arrival instants. PT transports wrap the conn in a
		// stream transform, whose bytes the cell pump reads; it starts
		// where a read loop's goroutine would have.
		oc.SetReadSink(circ.cellSink)
	} else {
		circ.rd = cellPump{r: circ.conn, cell: make([]byte, CellSize)}
		circ.rd.next = circ.pump
		c.clock.ReadyEvent(circ.rd.next)
	}

	for _, next := range []*Descriptor{circ.path.Middle, circ.path.Exit} {
		if next == nil {
			return fmt.Errorf("tor: incomplete path")
		}
		if err := circ.extend(next); err != nil {
			return err
		}
	}
	return nil
}

// extend adds one hop via RELAY_EXTEND addressed to the current last hop.
func (circ *circuit) extend(next *Descriptor) error {
	c := circ.client
	hs := newHandshake(c.rng)
	last := len(circ.hops) - 1

	rc := RelayCell{Cmd: RelayExtend, Data: encodeExtend(next.Addr, hs[:])}
	if err := circ.sendRelay(last, rc); err != nil {
		return err
	}
	reply, ok, timedOut := circ.control.RecvTimeout(c.cfg.BuildTimeout)
	if timedOut {
		circ.close(ErrBuildTimeout)
		return ErrBuildTimeout
	}
	if !ok {
		return circ.closeReason()
	}
	if reply.Cmd != RelayExtended || len(reply.Data) != HandshakeLen {
		return fmt.Errorf("tor: extension to %s failed (%v)", next.Name, reply.Cmd)
	}
	hop, err := hs.complete(reply.Data)
	if err != nil {
		return err
	}
	circ.hops = append(circ.hops, hop)
	return nil
}

// sendRelay seals a relay cell for hop index h and writes it.
func (circ *circuit) sendRelay(h int, rc RelayCell) error {
	var o relayOut
	if err := o.pack(circ, h, rc); err != nil {
		return err
	}
	err, _ := o.sendEvent(circ, nil)
	return err
}

// A relayOut is a relay cell on its way out: a cellBufPool lease
// carrying data bytes of its writer's, sealed for its hop once sendMu is
// held. sendRelay keeps one on its stack; a Stream keeps one for its
// writes and one for its END cell, where an event form leaves it across
// its waits.
type relayOut struct {
	cellOut
	data int
}

// pack is sendRelay's part before sendMu: rc goes into a cell lease.
func (o *relayOut) pack(circ *circuit, h int, rc RelayCell) error {
	buf, base := getCellBuf()
	if err := marshalRelayInto(wirePayload(buf), &rc); err != nil {
		putCellBuf(base)
		return err
	}
	if circ.closed {
		putCellBuf(base)
		return ErrCircuitClosed
	}
	setWireHeader(buf, circ.id, CmdRelay)
	o.cellOut = cellOut{buf: buf, base: base, seal: circ.hops[h]}
	return nil
}

// sendEvent is the rest of sendRelay: the cell goes out under sendMu
// (cellOut.sendEvent), and a failed write closes the circuit.
func (o *relayOut) sendEvent(circ *circuit, again func()) (err error, done bool) {
	err, done = o.cellOut.sendEvent(circ.sendMu, circ.conn, circ.close, again)
	if err != nil {
		err = ErrCircuitClosed
	}
	return err, done
}

// pump demultiplexes the backward cells of a PT first hop. It is a
// chain of clock events that makes a read loop's calls where and when
// the loop made them: its cellPump reads each cell, and each whole cell
// is handled inline, as cellSink handles one, in the one buffer:
// deliver's handlers either consume rc.Data synchronously (Stream.Deliver
// copies) or copy it before retaining it (the build control queue).
func (circ *circuit) pump() {
	for {
		whole, err := circ.rd.read()
		if !whole {
			if err != nil {
				circ.close(err)
			}
			return
		}
		circ.clientCell(circ.rd.cell, nil, nil)
		if circ.closed {
			return
		}
	}
}

// cellSink is the inline demultiplexer of a bare netem.Conn first hop,
// installed as its read sink. It, and the cell pump, run on the clock's
// event dispatcher and must never park: every handler on this path is
// park-free (Stream.Deliver appends, the control and connected queues use
// TrySend, close only broadcasts), and SENDME origination — which can
// park on sendMu or conn backpressure — goes through sendRelayAsync.
func (circ *circuit) cellSink(data []byte, base *[]byte, pool *sync.Pool, err error) {
	if err != nil {
		circ.close(err)
		return
	}
	if len(circ.rdStage) == 0 && len(data) == CellSize {
		circ.clientCell(data, base, pool)
		return
	}
	restage(&circ.rdStage, data, base, pool, circ.clientCell)
}

// clientCell handles one backward wire cell in place and then releases
// the buffer's lease, if it came with one (deliver's handlers consume or
// copy Data synchronously, so nothing outlives the call).
func (circ *circuit) clientCell(buf []byte, base *[]byte, pool *sync.Pool) {
	switch Command(buf[4]) {
	case CmdRelay:
		if wireCircID(buf) != circ.id {
			break
		}
		if hop, rc, ok := circ.peel(wirePayload(buf)); ok {
			circ.deliver(hop, rc)
		} else {
			circ.close(fmt.Errorf("tor: unrecognized backward cell"))
		}
	case CmdDestroy:
		circ.close(ErrCircuitClosed)
	}
	if base != nil && pool != nil {
		pool.Put(base)
	}
}

// peel finds the hop that recognizes the cell, nearest first. The
// returned RelayCell's Data is a view into p.
func (circ *circuit) peel(p []byte) (int, RelayCell, bool) {
	if rc, ok := parseRelayView(p); ok {
		for i, hop := range circ.hops {
			if hop.checkBackward(p) {
				return i, rc, true
			}
		}
	}
	return 0, RelayCell{}, false
}

// deliver routes one recognized backward cell.
func (circ *circuit) deliver(hop int, rc RelayCell) {
	switch rc.Cmd {
	case RelayExtended, RelayTruncated:
		// The control queue outlives this cell's wire buffer; detach the
		// Data view before handing it over.
		rc.Data = append([]byte(nil), rc.Data...)
		circ.control.TrySend(rc)
	case RelayConnected:
		if s := circ.stream(rc.StreamID); s != nil {
			s.notifyConnected(nil)
		}
	case RelayData:
		circ.deliverData(rc)
	case RelayEnd:
		if s := circ.stream(rc.StreamID); s != nil {
			// END for a pending stream refuses the BEGIN; an open
			// stream has taken its CONNECTED and reads this no more.
			s.notifyConnected(ErrStreamRefused)
			s.End()
			circ.forgetStream(rc.StreamID)
		}
	case RelaySendme:
		if rc.StreamID == 0 {
			circ.circPkgWin += circWindowInc
		} else if s := circ.stream(rc.StreamID); s != nil {
			s.pkgWin += streamWindowInc
		}
		circ.fcCond.Broadcast()
	}
}

// deliverData appends payload to the stream and generates SENDMEs.
func (circ *circuit) deliverData(rc RelayCell) {
	s := circ.stream(rc.StreamID)
	if s != nil {
		s.Deliver(rc.Data)
	}
	exit := circ.lastHop()
	circ.circDlvWin--
	sendCirc := false
	if circ.circDlvWin <= circWindowInit-circWindowInc {
		circ.circDlvWin += circWindowInc
		sendCirc = true
	}
	sendStream := false
	if s != nil {
		s.dlvWin--
		if s.dlvWin <= streamWindowInit-streamWindowInc {
			s.dlvWin += streamWindowInc
			sendStream = true
		}
	}
	if sendCirc {
		circ.sendRelayAsync(exit, RelayCell{Cmd: RelaySendme})
	}
	if sendStream {
		circ.sendRelayAsync(exit, RelayCell{Cmd: RelaySendme, StreamID: rc.StreamID})
	}
}

// sendRelayAsync originates rc from the run queue, where a goroutine
// spawned now would start: deliver runs inline, on a read sink or the
// cell pump, and sendRelay can park (sendMu, conn backpressure). Both
// read modes use it, so cell order does not depend on which is active.
func (circ *circuit) sendRelayAsync(h int, rc RelayCell) {
	c := circ.client
	var m *asyncSend
	if n := len(c.idleSends); n > 0 {
		m, c.idleSends = c.idleSends[n-1], c.idleSends[:n-1]
	} else {
		m = &asyncSend{}
		m.startFn, m.sendFn = m.start, m.send
	}
	m.circ, m.hop, m.rc = circ, h, rc
	c.clock.ReadyEvent(m.startFn)
}

// An asyncSend is one sendRelayAsync cell on its way: packed when it
// starts, as a goroutine's sendRelay packed it, then sent with
// relayOut.sendEvent, which waits where that sendRelay parked. A
// finished one waits on its client's idle list for the next, as a
// finished coroutine waits for the next Clock.Go.
type asyncSend struct {
	circ            *circuit
	hop             int
	rc              RelayCell
	out             relayOut
	startFn, sendFn func() // start and send, bound once
}

func (m *asyncSend) start() {
	if m.out.pack(m.circ, m.hop, m.rc) != nil {
		m.done()
		return
	}
	m.send()
}

func (m *asyncSend) send() {
	if _, done := m.out.sendEvent(m.circ, m.sendFn); done {
		m.done()
	}
}

func (m *asyncSend) done() {
	c := m.circ.client
	m.circ, m.rc = nil, RelayCell{}
	c.idleSends = append(c.idleSends, m)
}

func (circ *circuit) lastHop() int {
	return len(circ.hops) - 1
}

func (circ *circuit) stream(id uint16) *Stream {
	if id == 0 {
		return nil
	}
	return circ.streams[id]
}

func (circ *circuit) forgetStream(id uint16) {
	delete(circ.streams, id)
}

// openStream performs BEGIN/CONNECTED.
func (circ *circuit) openStream(target string) (*Stream, error) {
	if circ.closed {
		return nil, ErrCircuitClosed
	}
	circ.nextStream++
	id := circ.nextStream
	s := newStream(circ, id, target)
	circ.streams[id] = s
	exit := len(circ.hops) - 1

	if err := circ.sendRelay(exit, RelayCell{Cmd: RelayBegin, StreamID: id, Data: []byte(target)}); err != nil {
		circ.forgetStream(id)
		return nil, err
	}
	err, ok, timedOut := s.connected.RecvTimeout(circ.client.cfg.BuildTimeout)
	if timedOut || !ok {
		circ.forgetStream(id)
		return nil, ErrBuildTimeout
	}
	if err != nil {
		circ.forgetStream(id)
		return nil, err
	}
	return s, nil
}

func (circ *circuit) closeReason() error {
	if circ.closeErr != nil {
		return circ.closeErr
	}
	return ErrCircuitClosed
}

// close tears the circuit down locally and releases all waiters.
func (circ *circuit) close(err error) {
	if circ.closed {
		return
	}
	circ.closed = true
	circ.closeErr = err
	streams := make([]*Stream, 0, len(circ.streams))
	for _, s := range circ.streams {
		streams = append(streams, s)
	}
	// Deterministic teardown order: map iteration order must not leak
	// into the scheduler's wake-up sequence.
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })
	circ.streams = map[uint16]*Stream{}

	for _, s := range streams {
		s.End()
		s.notifyConnected(ErrCircuitClosed)
	}
	circ.fcCond.Broadcast()
	circ.control.Close()
	circ.conn.Close()
}

// consumePackage spends one forward cell of window budget.
func (circ *circuit) consumePackage(s *Stream) {
	circ.circPkgWin--
	s.pkgWin--
}

// Stream is an anonymized byte stream over a circuit. It implements
// netem.Stream; the read half, with the read timeout, is the embedded
// netem.Inbox, which deliverData fills and the exit's END ends.
type Stream struct {
	netem.Inbox
	circ   *circuit
	id     uint16
	target string

	connected *netem.Chan[error]

	localClosed bool

	pkgWin int
	dlvWin int

	// out is the DATA cell a write has under way, end the END cell of
	// a close.
	out, end relayOut
}

func newStream(circ *circuit, id uint16, target string) *Stream {
	return &Stream{
		Inbox:     netem.NewInbox(circ.client.clock),
		circ:      circ,
		id:        id,
		target:    target,
		connected: netem.NewChan[error](circ.client.clock, 1),
		pkgWin:    streamWindowInit,
		dlvWin:    streamWindowInit,
	}
}

func (s *Stream) notifyConnected(err error) {
	s.connected.TrySend(err)
}

// Write implements netem.Stream, packaging MaxRelayData-sized DATA cells
// under flow control.
func (s *Stream) Write(p []byte) (int, error) {
	n, err, _ := s.WriteEvent(p, nil)
	return n, err
}

// WriteEvent is Write for an event callback, with the contract of
// netem.Conn.WriteEvent, or Write itself for a nil again: each DATA cell
// is packaged where Write packages it, and a cell still waiting for
// sendMu or the link counts in n.
func (s *Stream) WriteEvent(p []byte, again func()) (n int, err error, done bool) {
	if again == nil && s.out.buf != nil {
		panic("tor: Stream.Write re-entered")
	}
	circ := s.circ
	exit := circ.lastHop()
	for {
		if s.out.buf != nil {
			k := s.out.data
			if err, done := s.out.sendEvent(circ, again); !done {
				return n, nil, false
			} else if err != nil {
				return max(n-k, 0), err, true
			}
		}
		if len(p) == 0 {
			return n, nil, true
		}
		// Wait for the circuit and stream package windows.
		for !circ.isClosed() && !s.localClosed && (circ.circPkgWin <= 0 || s.pkgWin <= 0) {
			if circ.fcCond.WaitEvent(again) {
				return n, nil, false
			}
		}
		if circ.isClosed() || s.localClosed {
			return n, ErrCircuitClosed, true
		}
		k := min(len(p), MaxRelayData)
		circ.consumePackage(s)
		if err := s.out.pack(circ, exit, RelayCell{Cmd: RelayData, StreamID: s.id, Data: p[:k]}); err != nil {
			return n, err, true
		}
		s.out.data = k
		n += k
		p = p[k:]
	}
}

// Close implements netem.Stream, sending RELAY_END.
func (s *Stream) Close() error {
	s.CloseEvent(nil)
	return nil
}

// CloseEvent is Close for an event callback, or Close itself for a nil
// again: the END cell goes out with relayOut.sendEvent, and done false
// means again goes on.
func (s *Stream) CloseEvent(again func()) bool {
	if s.end.buf == nil {
		if s.localClosed {
			return true
		}
		s.localClosed = true
		s.Drop(ErrCircuitClosed)
		s.circ.fcCond.Broadcast()
		if s.end.pack(s.circ, s.circ.lastHop(), RelayCell{Cmd: RelayEnd, StreamID: s.id}) != nil {
			s.circ.forgetStream(s.id)
			return true
		}
	}
	if _, done := s.end.sendEvent(s.circ, again); !done {
		return false
	}
	s.circ.forgetStream(s.id)
	return true
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr { return streamAddr("tor-client") }

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return streamAddr(s.target) }

type streamAddr string

func (streamAddr) Network() string  { return "tor" }
func (a streamAddr) String() string { return string(a) }
