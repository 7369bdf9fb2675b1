// Package marionette implements the programmable traffic-obfuscation
// transport. Traffic is generated by a probabilistic automaton written
// in a small DSL: states connected by weighted transitions, each
// transition emitting a cover-protocol message (the bundled model mimics
// an FTP session) that can embed a bounded number of tunnel bytes and is
// paced by a per-transition delay distribution.
//
// This structure is exactly why the paper measures marionette as the
// slowest PT (≈8× vanilla Tor for web access, >30 s overhead): every
// tunnel byte must wait for an automaton transition, and the automaton
// must first walk its protocol-establishment states. Both the model and
// its pacing are programmable here, as in the real system.
//
// marionette is an integration-set-3 transport.
package marionette

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// Action is what a transition emits.
type Action struct {
	// Cover is the plaintext cover message (e.g. an FTP reply).
	Cover string
	// Capacity is the number of tunnel bytes that can hide in the
	// message (0 for pure protocol chatter).
	Capacity int
}

// Transition connects two automaton states.
type Transition struct {
	// To is the destination state.
	To string
	// Weight is the selection probability mass.
	Weight float64
	// Act is emitted when the transition fires.
	Act Action
	// MinDelay / MaxDelay bound the uniform pacing delay.
	MinDelay, MaxDelay time.Duration
	// AwaitReply marks lockstep setup transitions: the walker blocks
	// until the peer's next message before continuing.
	AwaitReply bool
}

// Model is a marionette automaton.
type Model struct {
	// Start is the initial state.
	Start string
	// Data is the steady-state whose transitions carry tunnel bytes.
	Data string
	// States maps a state to its outgoing transitions.
	States map[string][]Transition
}

// Validate checks the model's structural invariants.
func (m *Model) Validate() error {
	if m.Start == "" || m.Data == "" {
		return errors.New("marionette: model needs Start and Data states")
	}
	if _, ok := m.States[m.Start]; !ok {
		return fmt.Errorf("marionette: start state %q undefined", m.Start)
	}
	if _, ok := m.States[m.Data]; !ok {
		return fmt.Errorf("marionette: data state %q undefined", m.Data)
	}
	for state, ts := range m.States {
		var sum float64
		for _, t := range ts {
			if t.Weight <= 0 {
				return fmt.Errorf("marionette: state %q has non-positive weight", state)
			}
			if _, ok := m.States[t.To]; !ok && t.To != m.Data {
				return fmt.Errorf("marionette: state %q targets undefined %q", state, t.To)
			}
			// A frame's two lengths are 16 bits, and a payload of finLen
			// bytes would read as the FIN.
			if len(t.Act.Cover) > math.MaxUint16 || t.Act.Capacity >= finLen {
				return fmt.Errorf("marionette: state %q has a cover or capacity its frame cannot carry", state)
			}
			sum += t.Weight
		}
		if sum <= 0 {
			return fmt.Errorf("marionette: state %q is terminal", state)
		}
	}
	return nil
}

// pick selects a weighted transition.
func pick(rng *rand.Rand, ts []Transition) *Transition {
	var sum float64
	for i := range ts {
		sum += ts[i].Weight
	}
	x := rng.Float64() * sum
	for i := range ts {
		x -= ts[i].Weight
		if x <= 0 {
			return &ts[i]
		}
	}
	return &ts[len(ts)-1]
}

// DefaultCapacity is the tunnel bytes one data transition can carry.
const DefaultCapacity = 256

// FTPWithCapacity returns the bundled FTP-mimicking model: a
// five-exchange session establishment followed by a paced data loop
// embedding at most capacity bytes (DefaultCapacity if not positive) per
// "transfer chunk" message. Byte-scaled simulations shrink the capacity
// together with page sizes so the automaton's pacing keeps its relative
// cost.
func FTPWithCapacity(capacity int) *Model {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	est := func(cover string, next string) []Transition {
		return []Transition{{
			To: next, Weight: 1,
			Act:      Action{Cover: cover},
			MinDelay: 15 * time.Millisecond, MaxDelay: 45 * time.Millisecond,
			AwaitReply: true,
		}}
	}
	return &Model{
		Start: "banner",
		Data:  "xfer",
		States: map[string][]Transition{
			"banner": est("220 ProFTPD Server ready.\r\n", "user"),
			"user":   est("USER anonymous\r\n", "pass"),
			"pass":   est("PASS guest@example.com\r\n", "type"),
			"type":   est("TYPE I\r\n", "pasv"),
			"pasv":   est("PASV\r\n", "xfer"),
			"xfer": {
				{
					To: "xfer", Weight: 0.85,
					Act:      Action{Cover: "APPE upload.jpg\r\n", Capacity: capacity},
					MinDelay: 25 * time.Millisecond, MaxDelay: 70 * time.Millisecond,
				},
				{
					To: "xfer", Weight: 0.15,
					Act:      Action{Cover: "NOOP\r\n"},
					MinDelay: 40 * time.Millisecond, MaxDelay: 120 * time.Millisecond,
				},
			},
		},
	}
}

// FTPForScale returns the FTP model adapted to a byte-scaled world: the
// per-transition payload capacity scales with byteScale like every other
// byte quantity, but is floored so miniature campaigns do not explode
// into hundreds of thousands of tiny transitions. The data-state pacing
// delays stretch by the same factor the floor introduced, so the modeled
// throughput (capacity per delay) and every transfer's virtual duration
// are preserved; only the pacing quantum coarsens.
func FTPForScale(byteScale float64) *Model {
	if byteScale <= 0 || byteScale > 1 {
		byteScale = 1
	}
	exact := float64(DefaultCapacity) * byteScale
	capacity := int(exact)
	if capacity < 1 {
		capacity = 1
	}
	const minCapacity = 64
	stretch := 1.0
	if capacity < minCapacity {
		stretch = float64(minCapacity) / exact
		capacity = minCapacity
	}
	m := FTPWithCapacity(capacity)
	if stretch > 1 {
		ts := m.States[m.Data]
		for i := range ts {
			ts[i].MinDelay = time.Duration(float64(ts[i].MinDelay) * stretch)
			ts[i].MaxDelay = time.Duration(float64(ts[i].MaxDelay) * stretch)
		}
	}
	return m
}

// finLen is the payload-length sentinel marking end-of-stream ("QUIT").
const finLen = 0xffff

// Frame on the wire: [2B cover len][cover][2B payload len][payload].
// appendFrame appends one to dst; the FIN frame carries finLen as its
// payload length, and no payload.
func appendFrame(dst []byte, cover string, payload []byte, fin bool) []byte {
	n := uint16(len(payload))
	if fin {
		n = finLen
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(cover)))
	return append(binary.BigEndian.AppendUint16(append(dst, cover...), n), payload...)
}

// cutFrame finds the frame at the head of b (a pt.FrameCut); a FIN
// frame ends at its payload-length sentinel.
func cutFrame(b []byte) (body, end int, err error) {
	if len(b) < 2 {
		return 0, 0, nil
	}
	if end = 4 + int(binary.BigEndian.Uint16(b)); len(b) < end {
		return 0, 0, nil
	}
	if np := int(binary.BigEndian.Uint16(b[end-2:])); np != finLen {
		end += np
	}
	if len(b) < end {
		return 0, 0, nil
	}
	return 0, end, nil
}

// parseFrame splits a frame cutFrame cut into its cover and payload.
func parseFrame(b []byte) (cover, payload []byte, fin bool) {
	nc := int(binary.BigEndian.Uint16(b))
	if binary.BigEndian.Uint16(b[2+nc:]) == finLen {
		return b[2 : 2+nc], nil, true
	}
	return b[2 : 2+nc], b[4+nc:], false
}

// maxQueue bounds the bytes waiting for data transitions.
const maxQueue = 64 << 10

// replyTimeout bounds a lockstep wait; maxReplies bounds the peer's
// messages counted ahead of the waits that take them.
const replyTimeout, maxReplies = 30 * time.Second, 16

// marionetteConn walks the automaton to move bytes: written bytes wait
// in the stream for a data transition, and bytes recovered from the
// peer's messages are delivered into it as they arrive. The walk is a
// chain of clock events: step, fire and send, and await after a
// lockstep transition.
type marionetteConn struct {
	*pt.Stream
	model  *Model
	conn   *netem.Conn
	in     *pt.FrameConn
	clock  *netem.Clock
	rng    *rand.Rand
	fireFn func() // mc.fire, bound once
	lateFn func() // mc.late, bound once

	state         string        // where the next transition starts
	t             *Transition   // the transition under way
	delay         time.Duration // its pacing delay
	payload, wbuf []byte        // its stream bytes; its frame, then the FIN
	fin           bool          // wbuf holds the FIN
	// replies counts the peer's messages no wait has taken; waiting is
	// the token of the wait in progress (0: none), one of waits so far,
	// and lates counts the waits whose reply timeout has fired.
	replies, waiting, waits, lates int
}

func newConn(model *Model, conn *netem.Conn, clock *netem.Clock, seed int64) *marionetteConn {
	mc := &marionetteConn{
		Stream: pt.NewStream(clock, "marionette", "marionette", "marionette-peer", maxQueue),
		model:  model,
		conn:   conn,
		clock:  clock,
		rng:    sim.NewRand(seed),
		state:  model.Start,
	}
	mc.fireFn, mc.lateFn = mc.fire, mc.late
	mc.in = pt.NewFrameConn(cutFrame, mc.frame, mc.Fail)
	mc.in.Attach(conn)
	mc.in.Await()
	clock.ReadyEvent(mc.step)
	return mc
}

// frame takes one of the peer's messages: any message answers a lockstep
// wait, which goes on from the run queue, the FIN cover ends the peer's
// direction, and a payload goes into the stream.
func (mc *marionetteConn) frame(b []byte) {
	mc.replies = min(mc.replies+1, maxReplies)
	if mc.waiting != 0 {
		mc.waiting = 0
		mc.clock.ReadyEvent(mc.await)
	}
	if _, payload, fin := parseFrame(b); fin {
		mc.PeerFin(0)
	} else if len(payload) > 0 {
		mc.Deliver(payload)
	}
	mc.in.Await()
}

// step draws the next transition, unless the conn has closed, and fires
// it once its pacing delay is out.
func (mc *marionetteConn) step() {
	if mc.Closed() {
		return
	}
	t := pick(mc.rng, mc.model.States[mc.state])
	mc.t, mc.state, mc.delay = t, t.To, t.MinDelay
	if t.MaxDelay > t.MinDelay {
		mc.delay += time.Duration(mc.rng.Int63n(int64(t.MaxDelay - t.MinDelay)))
	}
	if mc.delay > 0 {
		mc.clock.EventAt(mc.clock.Now()+mc.delay, mc.fireFn)
	} else {
		mc.fire()
	}
}

// fire frames the transition's cover with what it carries of the stream.
func (mc *marionetteConn) fire() {
	mc.payload = mc.Take(mc.payload, mc.t.Act.Capacity)
	mc.wbuf = appendFrame(mc.wbuf[:0], mc.t.Act.Cover, mc.payload, false)
	mc.send()
}

// send writes the frame and goes on with the walk. A refused frame keeps
// its bytes and is offered again one pacing delay later, at least 1 ms so
// that a zero delay cannot spin (DESIGN.md "Inline event execution").
func (mc *marionetteConn) send() {
	switch ok, err := mc.conn.TryWrite(mc.wbuf); {
	case !ok:
		mc.clock.EventAt(mc.clock.Now()+max(mc.delay, time.Millisecond), mc.send)
	case mc.fin: // the walk is over
	case err != nil:
		mc.Fail()
	case mc.t.Act.Capacity > 0 && mc.WriteEnded():
		// All queued bytes are out: the FIN cover ends the walk.
		mc.wbuf, mc.fin = appendFrame(mc.wbuf[:0], "QUIT\r\n", nil, true), true
		mc.send()
	case mc.t.AwaitReply:
		mc.await()
	default:
		mc.step()
	}
}

// await takes the peer's next message and steps on, at once if it came
// early and otherwise when frame takes it; a wait of replyTimeout fails
// the conn.
func (mc *marionetteConn) await() {
	if mc.replies > 0 {
		mc.replies--
		mc.step()
		return
	}
	mc.waits++
	mc.waiting = mc.waits
	mc.clock.EventAt(mc.clock.Now()+replyTimeout, mc.lateFn)
}

// late is a wait's reply timeout, which fails the conn if that wait is
// still in progress. Every wait arms one replyTimeout ahead, so the
// timeouts fire in the order of their waits: the n-th is wait n's.
func (mc *marionetteConn) late() {
	mc.lates++
	if mc.waiting == mc.lates {
		mc.waiting = 0
		mc.Fail()
	}
}

// CloseWrite half-closes the sending direction: queued bytes still walk
// out of the automaton before the FIN cover is emitted.
func (mc *marionetteConn) CloseWrite() error {
	mc.EndWrite()
	return nil
}

// Close implements netem.Stream.
func (mc *marionetteConn) Close() error {
	mc.Fail()
	return mc.conn.Close()
}

// walk is the handshake of either end: no flight, only the automaton
// walk over the raw conn, seeded by the conn's seed.
func walk(model *Model, clock *netem.Clock) pt.Handshake {
	return pt.Handshake{Records: func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
		return newConn(model, conn.(*netem.Conn), clock, t.Seed), nil
	}}
}

// StartServer runs a marionette server on host:port using the model.
func StartServer(host *netem.Host, port int, model *Model, seed int64, handle pt.StreamHandler) (pt.Server, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return pt.ListenAndServe(host, port, walk(model, host.Network().Clock()), seed, handle)
}

// NewDialer returns a marionette client for a server at addr.
func NewDialer(host *netem.Host, addr string, model *Model, seed int64) (pt.Dialer, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	hs := walk(model, host.Network().Clock())
	s := seed + 179426549
	return pt.DialerFunc(func(target string) (netem.Stream, error) {
		s++
		conn, err := pt.DialWrapped(host, addr, hs, s, target)
		if err != nil {
			return nil, fmt.Errorf("marionette: %w", err)
		}
		return conn, nil
	}), nil
}
