// Package tor implements the Tor substrate of the PTPerf simulation: an
// onion-routing overlay with fixed-size cells, circuit handshakes of
// ntor's size and round trips, per-hop recognition tags and counted
// digests, guard/middle/exit relays, bandwidth-weighted path selection,
// window-based flow control and a client that dials streams over its
// circuits.
//
// The substrate intentionally mirrors the architecture of the real Tor
// protocol (tor-spec.txt) at the level that matters for performance
// measurement: per-hop round trips during circuit construction, per-cell
// framing overhead, per-hop recognition and windowed delivery. Identity
// authentication (certificates, consensus signatures) is out of scope and
// documented as such in DESIGN.md. So is secrecy: a handshake half is 32
// seeded random bytes sent in the clear, the hop keys are expanded from
// both halves, and relay payloads cross every hop unencrypted. That is
// sound here because nothing in a world attacks them and no report reads
// them: cell sizes, hop counts and round trips set virtual time; tags and
// keys only have to differ per hop, direction and circuit, so that a
// corrupted, misrouted or replayed cell is rejected.
package tor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"ptperf/internal/netem"
)

// Cell geometry, following tor-spec: fixed 512-byte cells.
const (
	// CellSize is the wire size of every cell.
	CellSize = 512
	// headerSize is circID (4 bytes) + command (1 byte).
	headerSize = 5
	// PayloadSize is the usable payload of a cell.
	PayloadSize = CellSize - headerSize

	// relayHeaderSize is relayCmd(1) + recognized(2) + streamID(2) +
	// digest(4) + length(2).
	relayHeaderSize = 11
	// MaxRelayData is the maximum data bytes carried by one RELAY_DATA.
	MaxRelayData = PayloadSize - relayHeaderSize
)

// Command is a link-level cell command.
type Command byte

// Link-level commands.
const (
	// CmdPadding is ignored by receivers.
	CmdPadding Command = 0
	// CmdCreate carries the client half of a circuit handshake.
	CmdCreate Command = 1
	// CmdCreated carries the relay half of a circuit handshake.
	CmdCreated Command = 2
	// CmdRelay carries a relay payload addressed to one hop.
	CmdRelay Command = 3
	// CmdDestroy tears down a circuit.
	CmdDestroy Command = 4
)

func (c Command) String() string {
	switch c {
	case CmdPadding:
		return "PADDING"
	case CmdCreate:
		return "CREATE"
	case CmdCreated:
		return "CREATED"
	case CmdRelay:
		return "RELAY"
	case CmdDestroy:
		return "DESTROY"
	default:
		return fmt.Sprintf("CMD(%d)", byte(c))
	}
}

// RelayCommand is the command inside a relay payload.
type RelayCommand byte

// Relay commands.
const (
	// RelayBegin asks the exit to open a TCP connection.
	RelayBegin RelayCommand = 1
	// RelayData carries stream payload bytes.
	RelayData RelayCommand = 2
	// RelayEnd closes a stream.
	RelayEnd RelayCommand = 3
	// RelayConnected acknowledges RelayBegin.
	RelayConnected RelayCommand = 4
	// RelaySendme extends a flow-control window (streamID 0 ⇒ circuit).
	RelaySendme RelayCommand = 5
	// RelayExtend asks the current last hop to extend the circuit.
	RelayExtend RelayCommand = 6
	// RelayExtended reports a successful extension.
	RelayExtended RelayCommand = 7
	// RelayTruncated reports a failed extension or downstream teardown.
	RelayTruncated RelayCommand = 8
)

func (c RelayCommand) String() string {
	switch c {
	case RelayBegin:
		return "BEGIN"
	case RelayData:
		return "DATA"
	case RelayEnd:
		return "END"
	case RelayConnected:
		return "CONNECTED"
	case RelaySendme:
		return "SENDME"
	case RelayExtend:
		return "EXTEND"
	case RelayExtended:
		return "EXTENDED"
	case RelayTruncated:
		return "TRUNCATED"
	default:
		return fmt.Sprintf("RELAY(%d)", byte(c))
	}
}

// Cell is one fixed-size link cell.
type Cell struct {
	// CircID identifies the circuit on this link.
	CircID uint32
	// Cmd is the link command.
	Cmd Command
	// Payload is exactly PayloadSize bytes.
	Payload [PayloadSize]byte
}

// Encode writes the wire form of the cell.
func (c *Cell) Encode(buf []byte) []byte {
	if cap(buf) < CellSize {
		buf = make([]byte, CellSize)
	}
	buf = buf[:CellSize]
	binary.BigEndian.PutUint32(buf[0:4], c.CircID)
	buf[4] = byte(c.Cmd)
	copy(buf[headerSize:], c.Payload[:])
	return buf
}

// Decode parses a wire cell.
func (c *Cell) Decode(buf []byte) error {
	if len(buf) != CellSize {
		return fmt.Errorf("tor: cell must be %d bytes, got %d", CellSize, len(buf))
	}
	c.CircID = binary.BigEndian.Uint32(buf[0:4])
	c.Cmd = Command(buf[4])
	copy(c.Payload[:], buf[headerSize:])
	return nil
}

// Wire-buffer accessors for the zero-copy cell path: hot loops operate
// directly on leased CellSize byte slices (cellBufs) instead of
// round-tripping through the Cell struct, so a relayed cell's payload
// crosses a relay with exactly one in-copy and one out-copy (the pipe
// boundary) and no intermediate allocation.

// getCellBuf leases a CellSize wire buffer from clock's world, with its
// backing array for its return (cellBufs.Put) or ownership handoff.
func getCellBuf(clock *netem.Clock) (buf []byte, base *[]byte) {
	base = cellBufs.Get(clock)
	return (*base)[:CellSize], base
}

// wireCircID reads the circuit ID of a wire cell.
func wireCircID(buf []byte) uint32 { return binary.BigEndian.Uint32(buf[0:4]) }

// setWireHeader stamps the circuit ID and command of a wire cell.
func setWireHeader(buf []byte, id uint32, cmd Command) {
	binary.BigEndian.PutUint32(buf[0:4], id)
	buf[4] = byte(cmd)
}

// wirePayload returns the PayloadSize payload view of a wire cell.
func wirePayload(buf []byte) []byte { return buf[headerSize:CellSize] }

// A cellPump reads cells one at a time into one buffer (a cellBufs
// lease if base is set), one ReadFullEvent of the conn each; where that
// would park it leaves next, its owner's continuation, bound once. The
// client's PT first hop, every relay link and an EXTEND's CREATED keep one.
type cellPump struct {
	r    netem.Stream
	cell []byte
	base *[]byte
	got  int
	next func()
}

// read reads on into the cell. whole means the cell is complete and the
// next read starts another; otherwise the read waits with next queued,
// or, with err, the stream has ended (io.ErrUnexpectedEOF inside a cell,
// as io.ReadFull reports it).
func (p *cellPump) read() (whole bool, err error) {
	n, err, done := p.r.ReadFullEvent(p.cell[p.got:], p.next)
	if p.got += n; !done {
		return false, nil
	}
	if p.got == CellSize {
		p.got = 0
		return true, nil
	}
	if p.got > 0 && err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return false, err
}

// A cellOut is one cell on its way out whole: a cellBufs lease of
// clock's world, or a view of a cell its writer keeps (nil base). A
// client's relay cell is sealed for its hop once the send lock is held,
// so hop digest counters see cells in wire order.
type cellOut struct {
	buf    []byte
	base   *[]byte
	clock  *netem.Clock
	seal   *hopCrypto
	locked bool
}

// lease encodes c into a fresh cellBufs lease of clock's world.
func (o *cellOut) lease(clock *netem.Clock, c *Cell) {
	buf, base := getCellBuf(clock)
	*o = cellOut{buf: c.Encode(buf[:0]), base: base, clock: clock}
}

// sendEvent is the one lock → write → unlock step of a whole cell: it
// takes mu (if not nil), seals, and writes with w's WriteEvent, which
// copies; where either would park it leaves again in the parked
// writer's place and returns done false, for again to call it once
// more (a nil again parks). Once written the lease goes back, fail (if
// not nil) learns of a failed write while mu is held, and mu is freed.
func (o *cellOut) sendEvent(mu *netem.Mutex, w netem.EventWriter, fail func(error), again func()) (err error, done bool) {
	if !o.locked {
		if mu != nil && !mu.LockEvent(again) {
			return nil, false
		}
		o.locked = true
		if o.seal != nil {
			o.seal.sealForward(wirePayload(o.buf))
		}
	}
	k, err, done := w.WriteEvent(o.buf, again)
	if o.buf = o.buf[k:]; !done {
		return nil, false
	}
	if o.base != nil {
		cellBufs.Put(o.clock, o.base)
	}
	*o = cellOut{}
	if err != nil && fail != nil {
		fail(err)
	}
	if mu != nil {
		mu.Unlock()
	}
	return err, true
}

// RelayCell is the interior of a CmdRelay cell.
type RelayCell struct {
	// Cmd is the relay command.
	Cmd RelayCommand
	// StreamID identifies the stream (0 for circuit-level commands).
	StreamID uint16
	// Data is the command payload (at most MaxRelayData bytes).
	Data []byte
}

// ErrRelayTooLong reports an oversized relay payload.
var ErrRelayTooLong = errors.New("tor: relay data exceeds cell capacity")

// marshalRelayInto builds the relay payload in p (a PayloadSize-byte
// slice) with a zero tag and digest; the crypto layer's seal fills both.
// p is zeroed first: it is typically a recycled leased buffer carrying
// stale bytes, and the padding (which both digest computations cover)
// must be deterministic.
func marshalRelayInto(p []byte, rc *RelayCell) error {
	if len(rc.Data) > MaxRelayData {
		return ErrRelayTooLong
	}
	for i := range p {
		p[i] = 0
	}
	p[0] = byte(rc.Cmd)
	// p[1:3] is "recognized", the addressed hop's tag.
	binary.BigEndian.PutUint16(p[3:5], rc.StreamID)
	// p[5:9] is the digest.
	binary.BigEndian.PutUint16(p[9:11], uint16(len(rc.Data)))
	copy(p[relayHeaderSize:], rc.Data)
	return nil
}

// parseRelayView parses a relay payload; ok reports whether the length
// is sane (the tag and digest are the crypto layer's to check). Data is
// a view into p — valid only while p's buffer is; callers that retain it
// past the cell's lifetime (the client's circuit-build control queue)
// copy it first.
func parseRelayView(p []byte) (RelayCell, bool) {
	n := binary.BigEndian.Uint16(p[9:11])
	if int(n) > MaxRelayData {
		return RelayCell{}, false
	}
	rc := RelayCell{
		Cmd:      RelayCommand(p[0]),
		StreamID: binary.BigEndian.Uint16(p[3:5]),
		Data:     p[relayHeaderSize : relayHeaderSize+int(n)],
	}
	return rc, true
}

// restage is the slow half of a cell sink, for a segment that is not
// exactly one cell arriving on an empty stage: a partial or coalesced
// frame. It appends data to *stage, returns data's lease to clock's
// world, and hands every whole cell now staged to cell. Like the sink
// itself, cell gets the buffer together with its ownership: a staged
// cell is a view with no lease (nil base and pool), which the callback
// may overwrite but must copy to keep. The aligned case stays with the caller, a direct
// call that passes the segment's own lease on.
func restage(clock *netem.Clock, stage *[]byte, data []byte, base *[]byte, pool *sync.Pool, cell func(buf []byte, base *[]byte, pool *sync.Pool)) {
	*stage = append(*stage, data...)
	clock.Recycle(pool, base)
	for len(*stage) >= CellSize {
		buf := (*stage)[:CellSize]
		*stage = (*stage)[CellSize:]
		cell(buf, nil, nil)
	}
	if len(*stage) == 0 {
		*stage = nil
	}
}
