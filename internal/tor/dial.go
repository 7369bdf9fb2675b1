package tor

import (
	"errors"
	"fmt"
	"time"

	"ptperf/internal/netem"
)

// Preheat builds a circuit if none is alive, so that measurement code can
// exclude (or include) bootstrap cost explicitly: the dial engine
// without a stream, which the caller awaits parked (netem.Await).
func (c *Client) Preheat() error {
	_, err := netem.Await(c.clock, (&clientDial{c: c, preheat: true}).start)
	return err
}

// Dial opens an anonymized stream to target ("host:port") through the
// client's circuit. A stream that fails because its circuit died is
// re-attached to a fresh circuit up to RetryPolicy.MaxStreamRetries
// times (Tor's stream re-attach; default one retry). The caller awaits
// DialEvent parked (netem.Await).
func (c *Client) Dial(target string) (netem.Stream, error) {
	return netem.Await(c.clock, (&clientDial{c: c, target: target}).start)
}

// DialEvent is Dial's event form, for a clock event, which must not
// park: it returns done with the stream or the error, or false at its
// first wait, and done gets the result from the event that ends the
// dial. Each wait is an event form: the first hop's DialEvent,
// cellOut.sendEvent, the CREATED cellPump, Chan.RecvUntilEvent and
// Clock.SleepEvent.
func (c *Client) DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	return (&clientDial{c: c, target: target}).start(done)
}

// start runs the dial until its first wait or its end.
func (d *clientDial) start(done func(netem.Stream, error)) (netem.Stream, error, bool) {
	if d.done, d.again = done, d.resume; !d.run() {
		return nil, nil, false
	}
	return d.stream, d.err, true
}

// A clientDial is one Dial or Preheat under way, the client's one dial
// engine. It takes the live circuit or builds one (the first hop's dial,
// CREATE and CREATED, then EXTEND and EXTENDED per further hop; a failed
// build is retried after a backoff), then opens the stream with BEGIN
// and CONNECTED, re-attached to a fresh circuit if its circuit dies. at
// is the step it is at. At each wait again (resume) takes a parked
// goroutine's place.
type clientDial struct {
	c              *Client
	target         string
	preheat        bool // no stream
	done           func(netem.Stream, error)
	again          func()
	hopFn          func(netem.Stream, error) // the first hop's dial's
	at             dialStep
	attempt, build int           // the stream's re-attaches, the circuit's builds
	deadline       time.Duration // EXTENDED's or CONNECTED's
	path           Path
	next           *Descriptor // the hop an EXTEND reaches
	circ           *circuit
	hs             handshake
	out            relayOut     // CREATE, EXTEND or BEGIN
	rd             cellPump     // CREATED
	s              *Stream      // the stream being opened
	stream         netem.Stream // s, once open
	err            error
}

// A dialStep is where a dial is. It waits at atBackoff, at atBuild (the
// first hop's dial) and at the steps that send or receive a cell;
// atAttach, atExtend and atBegin only choose or pack.
type dialStep uint8

const (
	atAttach dialStep = iota // the live circuit, or a build
	atBackoff
	atBuild // path selection and the first hop's dial
	atCreate
	atCreated
	atExtend // the next EXTEND packed, or the circuit built
	atExtendOut
	atExtended
	atBegin // the BEGIN packed
	atBeginOut
	atConnected
	atDone
)

// resume goes on from the step the dial waited at and hands done the
// result once the dial ends.
func (d *clientDial) resume() {
	if d.run() {
		d.done(d.stream, d.err)
	}
}

// run goes on from the step the dial is at until a wait, reporting
// false, or the end, reporting true with the stream or the error.
func (d *clientDial) run() bool {
	c := d.c
	for d.at != atDone {
		switch d.at {
		case atAttach:
			if circ := c.circ; circ != nil && !circ.closed {
				d.circ, d.at = circ, atBegin
				continue
			} else if circ != nil {
				// The cached circuit died under us (relay crash, link
				// flap, scheduler drop) rather than being discarded via
				// NewCircuit: its replacement is a rebuild, not a first
				// build.
				c.circ = nil
				c.rec.Rebuilds++
			}
			d.build, d.at = 0, atBuild
		case atBackoff:
			if d.at = atBuild; !c.clock.SleepEvent(c.backoff(d.build-1), d.again) {
				return false
			}
		case atBuild:
			guard := c.Guard()
			d.circ, d.path = nil, Path{Guard: guard, Middle: c.cfg.Middle, Exit: c.cfg.Exit}
			var err error
			if c.cfg.Directory != nil {
				d.path, err = c.cfg.Directory.SelectPath(c.rng, guard, c.cfg.Middle, c.cfg.Exit)
			}
			if err != nil {
				d.buildFailed(err)
				continue
			}
			if d.hopFn == nil {
				d.hopFn = func(conn netem.Stream, err error) { d.hopDialed(conn, err); d.resume() }
			}
			conn, err, done := c.cfg.DialFirstHop.DialEvent(d.path.Guard.Addr, d.hopFn)
			if !done {
				return false
			}
			d.hopDialed(conn, err)
		case atCreate:
			if err, done := d.out.cellOut.sendEvent(nil, d.circ.conn, nil, d.again); !done {
				return false
			} else if err != nil {
				d.buildFailed(err)
				continue
			}
			// The CREATED wait is bounded like every other build step:
			// lossy first hops (a camoufler message drop, a dying
			// snowflake proxy) can otherwise stall this read forever.
			d.circ.conn.SetReadTimeout(c.cfg.BuildTimeout)
			buf, base := getCellBuf(c.clock)
			d.rd, d.at = cellPump{r: d.circ.conn, cell: buf, base: base, next: d.again}, atCreated
		case atCreated:
			whole, err := d.rd.read()
			if !whole && err == nil {
				return false
			}
			cell := d.rd.cell
			if whole {
				d.circ.conn.SetReadTimeout(netem.NoTimeout)
				if Command(cell[4]) != CmdCreated || wireCircID(cell) != d.circ.id {
					err = fmt.Errorf("tor: unexpected %v during create", Command(cell[4]))
				}
			} else {
				err = fmt.Errorf("tor: waiting for CREATED: %w", err)
			}
			d.grow(wirePayload(cell)[:HandshakeLen], err)
			cellBufs.Put(c.clock, d.rd.base)
			d.rd = cellPump{}
		case atExtend:
			if d.next = d.circ.path.Middle; len(d.circ.hops) > 1 {
				d.next = d.circ.path.Exit
			}
			switch {
			case len(d.circ.hops) == 3:
				// Built: kept, unless another dial built one while this
				// build waited, which is preferred.
				if c.circ != nil && !c.circ.closed {
					d.circ.close(nil)
					d.circ = c.circ
				} else {
					c.circ = d.circ
				}
				d.at = atBegin
			case d.next == nil:
				d.buildFailed(errors.New("tor: incomplete path"))
			default:
				d.hs = newHandshake(c.rng)
				rc := RelayCell{Cmd: RelayExtend, Data: encodeExtend(d.next.Addr, d.hs[:])}
				if err := d.out.pack(d.circ, d.circ.lastHop(), rc); err != nil {
					d.buildFailed(err)
				} else {
					d.at = atExtendOut
				}
			}
		case atExtendOut, atBeginOut:
			err, done := d.out.sendEvent(d.circ, d.again)
			switch {
			case !done:
				return false
			case err == nil: // on to the wait for the answer, the next step
				d.deadline = c.clock.Now() + c.cfg.BuildTimeout
				d.at++
			case d.at == atExtendOut:
				d.buildFailed(err)
			default:
				d.streamFailed(err)
			}
		case atExtended:
			reply, ok, timedOut, done := d.circ.control.RecvUntilEvent(d.deadline, d.again)
			var err error
			switch {
			case !done:
				return false
			case timedOut:
				d.circ.close(ErrBuildTimeout)
				err = ErrBuildTimeout
			case !ok:
				err = d.circ.closeReason()
			case reply.Cmd != RelayExtended || len(reply.Data) != HandshakeLen:
				err = fmt.Errorf("tor: extension to %s failed (%v)", d.next.Name, reply.Cmd)
			}
			d.grow(reply.Data, err)
		case atBegin:
			switch circ := d.circ; {
			case d.preheat:
				d.at = atDone
			case circ.closed:
				d.streamFailed(ErrCircuitClosed)
			default:
				circ.nextStream++
				d.s = newStream(circ, circ.nextStream, d.target)
				circ.streams[d.s.id] = d.s
				if err := d.out.pack(circ, circ.lastHop(), RelayCell{Cmd: RelayBegin, StreamID: d.s.id, Data: []byte(d.target)}); err != nil {
					d.streamFailed(err)
				} else {
					d.at = atBeginOut
				}
			}
		case atConnected:
			err, ok, timedOut, done := d.s.connected.RecvUntilEvent(d.deadline, d.again)
			switch {
			case !done:
				return false
			case timedOut || !ok:
				d.streamFailed(ErrBuildTimeout)
			case err != nil:
				d.streamFailed(err)
			default:
				d.stream, d.at = d.s, atDone
			}
		}
	}
	return true
}

// hopDialed starts a circuit on the first hop's conn with its CREATE.
func (d *clientDial) hopDialed(conn netem.Stream, err error) {
	c := d.c
	if err != nil {
		c.guardFailed(d.path.Guard)
		d.buildFailed(fmt.Errorf("tor: dial first hop: %w", err))
		return
	}
	d.circ = newCircuit(c, conn, d.path)
	d.circ.id = c.rng.Uint32() | 1
	d.hs = newHandshake(c.rng)
	create := &Cell{CircID: d.circ.id, Cmd: CmdCreate}
	copy(create.Payload[:], d.hs[:])
	d.out.cellOut.lease(d.c.clock, create)
	d.at = atCreate
}

// grow adds the hop whose handshake half peer answers the dial's, unless
// err ended the step, and goes on to the next EXTEND. The first hop
// starts the circuit's demultiplexer of backward cells.
func (d *clientDial) grow(peer []byte, err error) {
	var hop *hopCrypto
	if err == nil {
		hop, err = d.hs.complete(peer)
	}
	if err != nil {
		d.buildFailed(err)
		return
	}
	circ := d.circ
	if d.at, circ.hops = atExtend, append(circ.hops, hop); len(circ.hops) > 1 {
		return
	}
	if oc, ok := circ.conn.(*netem.Conn); ok {
		// Vanilla-tor first hop: demultiplex backward cells inline at
		// their arrival instants. PT transports wrap the conn in a
		// stream transform, whose bytes the cell pump reads; it starts
		// where a read loop's goroutine would have.
		oc.SetReadSink(circ.cellSink)
		return
	}
	circ.rd = cellPump{r: circ.conn, cell: make([]byte, CellSize), next: circ.pump}
	d.c.clock.ReadyEvent(circ.rd.next)
}

// buildFailed closes the conn of the circuit the build started, if it
// started one, and goes on to the next build, after a backoff, or fails
// the dial once the builds are spent: a lossy transport can eat a
// handshake cell, a snowflake volunteer can die mid-build, and under
// fault injection the chosen relay may just have crashed.
func (d *clientDial) buildFailed(err error) {
	c := d.c
	if d.circ != nil {
		d.circ.conn.Close()
		d.circ = nil
	}
	if errors.Is(err, ErrBuildTimeout) {
		c.rec.BuildTimeouts++
	}
	if d.build++; d.build <= c.cfg.Retry.buildRetries() {
		c.rec.Rebuilds++
		d.at = atBackoff
		return
	}
	if d.attempt > 0 {
		// A re-attach that cannot even get a circuit abandons the
		// stream.
		c.rec.Abandoned++
	}
	d.err, d.at = err, atDone
}

// streamFailed re-attaches a stream whose circuit died to a fresh
// circuit while re-attaches are left, or fails the dial.
func (d *clientDial) streamFailed(err error) {
	c := d.c
	if d.s != nil {
		d.circ.forgetStream(d.s.id)
		d.s = nil
	}
	c.rec.StreamFailures++
	switch {
	case !errors.Is(err, ErrCircuitClosed):
		d.err, d.at = err, atDone
	case d.attempt >= c.cfg.Retry.streamRetries():
		c.rec.Abandoned++
		d.err, d.at = err, atDone
	default:
		c.rec.ReAttaches++
		c.NewCircuit()
		d.attempt++
		d.at = atAttach
	}
}
