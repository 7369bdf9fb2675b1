// Package meek implements the domain-fronted HTTP polling transport.
// The client sends HTTPS POSTs whose outer SNI names the CDN front
// domain while the request inside is routed to the meek bridge; tunnel
// bytes ride in POST bodies and responses. The cost structure the paper
// measures is kept:
//
//   - every byte pays a store-and-forward hop through the CDN front,
//   - the tunnel advances only at poll cadence — an idle client backs
//     off its polling, so TTFB and interactive latency are high,
//   - the public bridge is rate-limited by its maintainer, and
//   - long sessions exhaust a bridge byte budget and are cut, which is
//     why the paper could almost never pull a complete bulk file
//     through meek (§4.6).
//
// meek is an integration-set-1 transport (bridge = guard).
package meek

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// The polling model.
const (
	// chunk is the maximum body per POST or response.
	chunk = 64 << 10
	// minPoll is the immediate re-poll interval when the tunnel is
	// active.
	minPoll = 20 * time.Millisecond
	// maxPoll is the idle back-off ceiling.
	maxPoll = 5 * time.Second
	// frontDelay is the CDN's per-request processing time.
	frontDelay = 15 * time.Millisecond
	// maxQueue bounds the bytes either end queues for the next polls.
	maxQueue = 256 << 10
)

// Defaults for the bridge's policy.
const (
	// DefaultBridgeRate is the bridge maintainer's rate limit in bytes
	// per virtual second.
	DefaultBridgeRate = 1 << 20
	// DefaultSessionBudgetMedian is the median of the lognormal bridge
	// byte budget after which a session is cut.
	DefaultSessionBudgetMedian = 3 << 20
)

// Config parameterizes meek.
type Config struct {
	// BridgeRate overrides DefaultBridgeRate (bytes per virtual second).
	BridgeRate float64
	// SessionBudgetMedian overrides DefaultSessionBudgetMedian;
	// negative disables the budget.
	SessionBudgetMedian int64
	// Seed drives randomized budgets.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BridgeRate <= 0 {
		c.BridgeRate = DefaultBridgeRate
	}
	if c.SessionBudgetMedian == 0 {
		c.SessionBudgetMedian = DefaultSessionBudgetMedian
	}
	return c
}

// Poll frame between client and front, and front and bridge:
//
//	request:  [8B session][4B len][body]
//	response: [1B status][4B len][body]      status 0 = OK, 1 = session gone
const (
	statusOK   = 0
	statusGone = 1
)

// A tunnel moves thousands of polls, so every loop frames and reads in
// buffers it keeps: a body read is valid until the next read into the
// same buffer. No writer sends more than chunk; readers hold them to it.

func writePoll(w io.Writer, buf *[]byte, sid uint64, body []byte) error {
	b := binary.BigEndian.AppendUint64((*buf)[:0], sid)
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	*buf = append(b, body...)
	_, err := w.Write(*buf)
	return err
}

// readPoll reads one poll into *buf's array, grown if it is too small.
func readPoll(r io.Reader, buf *[]byte) (uint64, []byte, error) {
	head := slices.Grow((*buf)[:0], 12)[:12]
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, err
	}
	sid := binary.BigEndian.Uint64(head)
	body, err := readBody(r, buf, binary.BigEndian.Uint32(head[8:]))
	return sid, body, err
}

func writeReply(w io.Writer, buf *[]byte, status byte, body []byte) error {
	b := binary.BigEndian.AppendUint32(append((*buf)[:0], status), uint32(len(body)))
	*buf = append(b, body...)
	_, err := w.Write(*buf)
	return err
}

// readReply reads one reply into *buf's array, grown if it is too small.
func readReply(r io.Reader, buf *[]byte) (byte, []byte, error) {
	head := slices.Grow((*buf)[:0], 5)[:5]
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, err
	}
	status := head[0]
	body, err := readBody(r, buf, binary.BigEndian.Uint32(head[1:]))
	return status, body, err
}

// readBody reads the n bytes a header announced over that header.
func readBody(r io.Reader, buf *[]byte, n uint32) ([]byte, error) {
	if n > chunk {
		return nil, errors.New("meek: oversized frame")
	}
	*buf = slices.Grow((*buf)[:0], int(n))[:n]
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, err
	}
	return *buf, nil
}

// Front is the CDN edge: it terminates client TLS and forwards each
// request to the bridge, adding its processing delay.
type Front struct {
	host       *netem.Host
	bridgeAddr string
	ln         *netem.Listener
}

// StartFront runs the CDN front on host:port, forwarding to bridgeAddr.
func StartFront(host *netem.Host, port int, _ Config, bridgeAddr string) (*Front, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	f := &Front{host: host, bridgeAddr: bridgeAddr, ln: ln}
	pt.Serve(host.Network().Clock(), ln, f.serveConn)
	return f, nil
}

// Addr returns the front's contact address (what the censor sees).
func (f *Front) Addr() string { return f.ln.Addr().String() }

// serveConn relays one client's polling connection; the front keeps a
// matching upstream connection to the bridge.
func (f *Front) serveConn(c net.Conn) {
	defer c.Close()
	clock := f.host.Network().Clock()
	up, err := f.host.Dial(f.bridgeAddr)
	if err != nil {
		return
	}
	defer up.Close()
	var rbuf, wbuf []byte // a poll and its reply share both
	for {
		sid, body, err := readPoll(c, &rbuf)
		if err != nil {
			return
		}
		clock.Sleep(frontDelay)
		if err := writePoll(up, &wbuf, sid, body); err != nil {
			return
		}
		status, reply, err := readReply(up, &rbuf)
		if err != nil {
			return
		}
		if err := writeReply(c, &wbuf, status, reply); err != nil {
			return
		}
	}
}

// Bridge is the meek server co-located with the guard.
type Bridge struct {
	cfg  Config
	host *netem.Host
	ln   *netem.Listener
	// rng draws session budgets.
	rng      *rand.Rand
	sessions *pt.Sessions[uint64, *bridgeSession]

	// rateFree is the virtual time the shared rate limiter frees up.
	rateFree time.Duration
}

// bridgeSession is one tunnel at the bridge: the handler-facing stream
// and the byte budget the polls are charged against.
type bridgeSession struct {
	*pt.Stream
	budget int64
	served int64
	// gone answers every further poll with statusGone: the budget ran
	// out or the client stopped polling.
	gone bool
}

// StartBridge runs the meek bridge on host:port.
func StartBridge(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (*Bridge, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	clock := host.Network().Clock()
	b := &Bridge{
		cfg:  cfg.withDefaults(),
		host: host,
		ln:   ln,
		rng:  sim.NewRand(cfg.Seed + 3),
	}
	b.sessions = pt.NewSessions(clock, func(uint64) *bridgeSession {
		s := &bridgeSession{
			Stream: pt.NewStream(clock, "meek", "meek-bridge", "meek-client", maxQueue),
			budget: b.drawBudget(),
		}
		clock.Go(func() { pt.ServeStream(s, handle) })
		return s
	}, b.cut)
	pt.Serve(clock, ln, b.serveFrontConn)
	return b, nil
}

// Addr returns the bridge's contact address.
func (b *Bridge) Addr() string { return b.ln.Addr().String() }

// cut ends a session from the bridge's side, like meek-server expiring
// it: the handler's stream gets EOF and the client's next poll is told
// the session is gone.
func (b *Bridge) cut(s *bridgeSession) {
	s.gone = true
	s.Fail()
}

// drawBudget samples the lognormal session byte budget.
func (b *Bridge) drawBudget() int64 {
	if b.cfg.SessionBudgetMedian < 0 {
		return 1 << 62
	}
	v := float64(b.cfg.SessionBudgetMedian) * math.Exp(b.rng.NormFloat64()*1.2)
	if v < 64<<10 {
		v = 64 << 10
	}
	return int64(v)
}

// reserveRate charges n bytes against the bridge-wide rate limit and
// returns how long the caller must wait.
func (b *Bridge) reserveRate(now time.Duration, n int) time.Duration {
	if b.rateFree < now {
		b.rateFree = now
	}
	wait := b.rateFree - now
	b.rateFree += time.Duration(float64(n) / b.cfg.BridgeRate * float64(time.Second))
	return wait
}

// charge books n tunnelled bytes against the session's budget and
// reports whether that exhausted it.
func (b *Bridge) charge(s *bridgeSession, n int) (over bool) {
	s.served += int64(n)
	return s.served > s.budget
}

// serveFrontConn processes polls arriving from the front.
func (b *Bridge) serveFrontConn(c net.Conn) {
	defer c.Close()
	clock := b.host.Network().Clock()
	var rbuf, down, wbuf []byte // reused by every poll
	for {
		sid, body, err := readPoll(c, &rbuf)
		if err != nil {
			return
		}
		s := b.sessions.Touch(sid)
		if s.gone {
			if err := writeReply(c, &wbuf, statusGone, nil); err != nil {
				return
			}
			continue
		}
		if len(body) > 0 {
			s.Deliver(body)
		}
		down = s.Take(down, chunk)
		if b.charge(s, len(body)+len(down)) {
			b.cut(s)
		}

		// Maintainer's rate limit applies to tunnelled bytes.
		if wait := b.reserveRate(clock.Now(), len(down)); wait > 0 {
			clock.Sleep(wait)
		}
		// The chunk that crossed the budget still ships; the session is
		// gone from the next poll on.
		if err := writeReply(c, &wbuf, statusOK, down); err != nil {
			return
		}
	}
}

// Dialer is the meek client.
type Dialer struct {
	host      *netem.Host
	frontAddr string

	next uint64
}

// NewDialer returns a meek client that polls through the front.
func NewDialer(host *netem.Host, frontAddr string, cfg Config) *Dialer {
	return &Dialer{host: host, frontAddr: frontAddr, next: uint64(cfg.Seed)*2654435761 + 1}
}

// Dial implements pt.Dialer.
func (d *Dialer) Dial(target string) (net.Conn, error) {
	d.next++
	sid := d.next

	conn, err := d.host.Dial(d.frontAddr)
	if err != nil {
		return nil, fmt.Errorf("meek: front unreachable: %w", err)
	}
	clock := d.host.Network().Clock()
	t := &pollConn{
		Stream: pt.NewStream(clock, "meek", "meek-client", "meek-tunnel", maxQueue),
		clock:  clock,
		sid:    sid,
		conn:   conn,
	}
	clock.Go(t.pollLoop)
	if err := pt.WriteTarget(t, target); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// pollConn is the client-side tunnel endpoint.
type pollConn struct {
	*pt.Stream
	clock *netem.Clock
	sid   uint64
	conn  net.Conn
}

// pollLoop runs the HTTP polling cycle.
func (t *pollConn) pollLoop() {
	defer t.conn.Close()
	defer t.Fail()
	interval := minPoll
	var body, rbuf, wbuf []byte // reused by every poll
	for !t.Closed() {
		body = t.Take(body, chunk)
		if err := writePoll(t.conn, &wbuf, t.sid, body); err != nil {
			return
		}
		status, reply, err := readReply(t.conn, &rbuf)
		if err != nil || status == statusGone {
			return
		}
		if len(reply) > 0 {
			t.Deliver(reply)
		}
		if len(body) == 0 && len(reply) == 0 {
			t.clock.Sleep(interval)
			interval = min(interval*3/2, maxPoll)
		} else {
			interval = minPoll
		}
	}
}
