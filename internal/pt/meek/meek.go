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
	"math"
	"math/rand"
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
//	response: [1B status][4B len][body]
//
// Every hop reads them with a pt.FrameConn and frames them in a buffer it
// keeps, so no goroutine parks per poll. No writer sends a body over
// chunk; cutFrame refuses one.
const statusOK, statusGone = 0, 1

// appendFrame appends a frame of body under pre, the session or the
// status.
func appendFrame(dst, pre, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, pre...), uint32(len(body)))
	return append(dst, body...)
}

// cutPoll and cutReply are the pt.FrameCuts; a handler gets the whole frame.
func cutPoll(b []byte) (body, end int, err error)  { return cutFrame(b, 12) }
func cutReply(b []byte) (body, end int, err error) { return cutFrame(b, 5) }

// cutFrame cuts a frame whose head of n bytes ends with the body's length.
func cutFrame(b []byte, n int) (body, end int, err error) {
	if len(b) < n {
		return 0, 0, nil
	}
	if size := binary.BigEndian.Uint32(b[n-4:]); size > chunk {
		return 0, 0, errors.New("meek: oversized frame")
	} else if end = n + int(size); len(b) < end {
		return 0, 0, nil
	}
	return 0, end, nil
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
	ln.Serve(f.serveConn)
	return f, nil
}

// Addr returns the front's contact address (what the censor sees).
func (f *Front) Addr() string { return f.ln.Addr().String() }

// relay is one client's polling connection at the front and its
// upstream connection to the bridge. A poll goes upstream frontDelay
// after it arrives, its reply back as it arrives, both verbatim, and the
// next poll is taken once the reply is out.
type relay struct {
	in, out   *pt.FrameConn
	poll      []byte // the poll being forwarded
	forwardFn func()
}

// serveConn dials the bridge, then relays. The dial's round trip is a
// clock event (Host.DialEvent); a poll that arrives meanwhile waits in
// the endpoint.
func (f *Front) serveConn(c *netem.Conn) {
	clock := f.host.Network().Clock()
	l := &relay{}
	l.in = pt.NewFrameConn(cutPoll, func(poll []byte) {
		l.poll = append(l.poll[:0], poll...)
		clock.EventAt(clock.Now()+frontDelay, l.forwardFn)
	}, l.stop)
	l.out = pt.NewFrameConn(cutReply, l.in.Send, l.stop)
	l.forwardFn = func() { l.out.Send(l.poll) }
	l.in.Attach(c)
	if up, err, done := f.host.DialEvent(f.bridgeAddr, l.dialed); done {
		l.dialed(up, err)
	}
}

// dialed starts relaying over the conn to the bridge.
func (l *relay) dialed(up *netem.Conn, err error) {
	if err != nil {
		l.in.Stop()
		return
	}
	l.out.Attach(up)
	l.in.Await()
}

// stop closes both conns, upstream first.
func (l *relay) stop() {
	if up := l.out.Conn(); up != nil {
		up.Close()
	}
	l.in.Conn().Close()
}

// Bridge is the meek server co-located with the guard.
type Bridge struct {
	cfg   Config
	clock *netem.Clock
	ln    *netem.Listener
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
		cfg:   cfg.withDefaults(),
		clock: clock,
		ln:    ln,
		rng:   sim.NewRand(cfg.Seed + 3),
	}
	b.sessions = pt.NewSessions(clock, func(uint64) *bridgeSession {
		s := &bridgeSession{
			Stream: pt.NewStream(clock, "meek", "meek-bridge", "meek-client", maxQueue),
			budget: b.drawBudget(),
		}
		clock.ReadyEvent(func() { pt.ServeStream(s, handle) })
		return s
	}, b.cut)
	ln.Serve(b.serveFrontConn)
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

// answerer is one front connection at the bridge: a poll is answered
// once the rate limit lets its reply go, and the next poll taken then.
type answerer struct {
	b       *Bridge
	in      *pt.FrameConn
	down    []byte // the reply's tunnelled bytes
	reply   []byte
	replyFn func() // sends reply
}

// serveFrontConn starts answering the polls arriving from the front.
func (b *Bridge) serveFrontConn(c *netem.Conn) {
	a := &answerer{b: b}
	a.in = pt.NewFrameConn(cutPoll, a.poll, func() { c.Close() })
	a.replyFn = func() { a.in.Send(a.reply) }
	a.in.Attach(c)
	a.in.Await()
}

// poll feeds a poll's body into its session and frames the reply, which
// carries what the session's stream has queued.
func (a *answerer) poll(poll []byte) {
	b := a.b
	s := b.sessions.Touch(binary.BigEndian.Uint64(poll))
	if s.gone {
		a.reply = appendFrame(a.reply[:0], []byte{statusGone}, nil)
		a.replyFn()
		return
	}
	body := poll[12:]
	if len(body) > 0 {
		s.Deliver(body)
	}
	a.down = s.Take(a.down, chunk)
	// The chunk that crosses the budget still ships; the session is gone
	// from the next poll on.
	if s.served += int64(len(body) + len(a.down)); s.served > s.budget {
		b.cut(s)
	}
	a.reply = appendFrame(a.reply[:0], []byte{statusOK}, a.down)
	// Maintainer's rate limit applies to tunnelled bytes.
	if wait := b.reserveRate(b.clock.Now(), len(a.down)); wait > 0 {
		b.clock.EventAt(b.clock.Now()+wait, a.replyFn)
		return
	}
	a.replyFn()
}

// Dialer is the meek client.
type Dialer struct {
	host      *netem.Host
	frontAddr string
	next      uint64
}

// NewDialer returns a meek client that polls through the front.
func NewDialer(host *netem.Host, frontAddr string, cfg Config) *Dialer {
	return &Dialer{host: host, frontAddr: frontAddr, next: uint64(cfg.Seed)*2654435761 + 1}
}

// Dial implements pt.Dialer.
func (d *Dialer) Dial(target string) (netem.Stream, error) {
	d.next++
	clock := d.host.Network().Clock()
	t := &pollConn{
		Stream:   pt.NewStream(clock, "meek", "meek-client", "meek-tunnel", maxQueue),
		clock:    clock,
		interval: minPoll,
	}
	binary.BigEndian.PutUint64(t.sid[:], d.next) // before Dial parks and another Dial runs
	conn, err := d.host.Dial(d.frontAddr)
	if err != nil {
		return nil, fmt.Errorf("meek: front unreachable: %w", err)
	}
	t.in, t.pollFn = pt.NewFrameConn(cutReply, t.reply, t.stop), t.send
	t.in.Attach(conn.(*netem.Conn))
	// The first poll goes out once the caller parks, so it carries the
	// target prologue written below.
	clock.ReadyEvent(t.pollFn)
	if err := pt.WriteTarget(t, target); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// pollConn is the client-side tunnel endpoint and its polling cycle: a
// poll, with data or empty, goes out, its reply is delivered when it
// arrives, and the next poll follows at once, or after an idle back-off.
type pollConn struct {
	*pt.Stream
	clock    *netem.Clock
	sid      [8]byte
	in       *pt.FrameConn
	body     []byte // the poll's tunnelled bytes
	poll     []byte
	interval time.Duration // the next idle back-off
	pollFn   func()        // t.send, bound once
}

// send sends the next poll and awaits its reply, or ends the cycle once
// the tunnel has closed.
func (t *pollConn) send() {
	if t.Closed() {
		t.in.Stop()
		return
	}
	t.body = t.Take(t.body, chunk)
	t.poll = appendFrame(t.poll[:0], t.sid[:], t.body)
	t.in.Send(t.poll)
}

// reply delivers a poll's reply and paces the next poll.
func (t *pollConn) reply(reply []byte) {
	if reply[0] == statusGone {
		t.in.Stop()
		return
	}
	body := reply[5:]
	if len(body) > 0 {
		t.Deliver(body)
	}
	if len(t.body) == 0 && len(body) == 0 {
		t.clock.EventAt(t.clock.Now()+t.interval, t.pollFn)
		t.interval = min(t.interval*3/2, maxPoll)
		return
	}
	t.interval = minPoll
	t.send()
}

// stop ends the cycle, and with it the tunnel.
func (t *pollConn) stop() {
	t.Fail()
	t.in.Conn().Close()
}
