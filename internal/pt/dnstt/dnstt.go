// Package dnstt implements the DNS-over-HTTPS tunneling transport. To a
// censor the client talks TLS to a public DoH resolver; in reality each
// DNS query's label bytes carry upstream tunnel data and each response
// carries downstream data. The constraints that the paper identifies as
// dnstt's bottleneck are implemented literally:
//
//   - upstream capacity is one query's worth of encoded labels (~110 B),
//   - downstream capacity is one DNS response, at most 512 B by default,
//   - the client keeps a bounded number of in-flight polls, so the
//     downstream rate is capped at inflight × respCap / RTT,
//   - the resolver rate-limits heavy sessions, which is what makes bulk
//     downloads unreliable (§4.6).
//
// dnstt is integration set 1 with an extra hop: client → recursive
// resolver → dnstt server (authoritative) → Tor, i.e. four hops total.
package dnstt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// Defaults mirroring the real system.
const (
	// DefaultQueryCap is the upstream payload per query (encoded
	// labels of one DNS name).
	DefaultQueryCap = 110
	// DefaultRespCap is the downstream payload per response (the
	// paper's 512-byte DoH response limit).
	DefaultRespCap = 512
	// DefaultInflight is the client's maximum outstanding polls
	// (dnstt's turbotunnel layer keeps a deep window of queries).
	DefaultInflight = 16
	// DefaultBudgetMedian is the median of the lognormal per-session
	// downstream byte budget after which the resolver cuts the session
	// off. Web browsing rarely reaches it within one circuit's
	// lifetime (a cut just forces a fresh circuit), but bulk downloads
	// exhaust it mid-file — the paper's §4.6 failure mode.
	DefaultBudgetMedian = 6 << 20
)

const (
	// resolverDelay is the recursive resolver's per-query processing
	// time.
	resolverDelay = 4 * time.Millisecond
	// serverQueue bounds the server's downstream queue, so the tunnel
	// applies backpressure at roughly one window of responses.
	serverQueue = 64 << 10
	// clientQueue bounds the client's upstream queue.
	clientQueue = 32 << 10
)

// Config parameterizes the tunnel.
type Config struct {
	// QueryCap overrides DefaultQueryCap.
	QueryCap int
	// RespCap overrides DefaultRespCap.
	RespCap int
	// Inflight overrides DefaultInflight.
	Inflight int
	// BudgetMedian overrides DefaultBudgetMedian; 0 keeps the default,
	// negative disables throttling.
	BudgetMedian int64
	// Seed drives identifiers and budget draws.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.QueryCap <= 0 {
		c.QueryCap = DefaultQueryCap
	}
	if c.RespCap <= 0 {
		c.RespCap = DefaultRespCap
	}
	if c.Inflight <= 0 {
		c.Inflight = DefaultInflight
	}
	if c.BudgetMedian == 0 {
		c.BudgetMedian = DefaultBudgetMedian
	}
	return c
}

// Frame layout (shared by the resolver hop and the authoritative hop),
// each a pt.Prefix16 frame read and written by a pt.FrameConn, so every
// hop runs inline, in its conns' read sinks and in clock events, and no
// goroutine parks per query:
//
//	query:    [2B total len][8B session][4B qseq][data]
//	response: [2B total len][4B rseq][data]        (rseq 0xffffffff = empty poll answer)
const (
	sessionLen = 8
	emptyRseq  = 0xffffffff
	// emptyQseq marks data-less polls, which must not consume upstream
	// sequence numbers.
	emptyQseq = 0xffffffff
)

// sessionID is the session field of a query, the key of both session
// tables.
type sessionID [sessionLen]byte

// check refuses caps whose frames would not fit their 16-bit length
// prefix: it would wrap and understate the frame, and the peer's
// reassembly would lose its place in the stream.
func (c Config) check() error {
	if c.QueryCap > math.MaxUint16-sessionLen-4 || c.RespCap > math.MaxUint16-4 {
		return fmt.Errorf("dnstt: QueryCap %d or RespCap %d over what a 16-bit frame length leaves them (%d, %d)", c.QueryCap, c.RespCap, math.MaxUint16-sessionLen-4, math.MaxUint16-4)
	}
	return nil
}

// Resolver is the recursive DoH resolver hop.
type Resolver struct {
	cfg        Config
	host       *netem.Host
	clock      *netem.Clock
	serverAddr string
	ln         *netem.Listener
	// rng draws session budgets; the session table serializes it.
	rng      *rand.Rand
	sessions *pt.Sessions[sessionID, *sessionMeter]
}

// sessionMeter tracks a tunnel session's downstream volume against its
// drawn byte budget.
type sessionMeter struct {
	bytes  int64
	budget int64
}

// StartResolver runs a DoH resolver on host:port forwarding tunnel
// queries to the authoritative dnstt server at serverAddr.
func StartResolver(host *netem.Host, port int, cfg Config, serverAddr string) (*Resolver, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	r := &Resolver{
		cfg:        cfg,
		host:       host,
		clock:      host.Network().Clock(),
		serverAddr: serverAddr,
		ln:         ln,
		rng:        sim.NewRand(cfg.Seed + 29),
	}
	r.sessions = pt.NewSessions(r.clock, r.newMeter, nil)
	ln.Serve(r.serve)
	return r, nil
}

// Addr returns the resolver's contact address.
func (r *Resolver) Addr() string { return r.ln.Addr().String() }

// newMeter draws the byte budget of a session seen for the first time.
func (r *Resolver) newMeter(sessionID) *sessionMeter {
	m := &sessionMeter{budget: 1 << 62}
	if r.cfg.BudgetMedian > 0 {
		b := int64(float64(r.cfg.BudgetMedian) * math.Exp(r.rng.NormFloat64()))
		if b < r.cfg.BudgetMedian/8 {
			b = r.cfg.BudgetMedian / 8
		}
		m.budget = b
	}
	return m
}

// relay is one client poll pipeline at the resolver, with its own
// upstream conn, so the client's in-flight polls proceed in parallel, as
// independent DNS queries would. A query is stamped on its session when
// it arrives and sent upstream resolverDelay later; its response is
// relayed back when it arrives, and only then is the next query taken.
type relay struct {
	r *Resolver
	// in is the client's conn end, out the upstream one, attached once
	// it is dialed.
	in, out    *pt.FrameConn
	frame      []byte        // the query being resolved, then its response
	m          *sessionMeter // the query's session
	resolvedFn func()        // l.resolved, bound once
}

// serve starts relaying one client poll pipeline.
func (r *Resolver) serve(c *netem.Conn) {
	l := &relay{r: r}
	l.in = pt.NewFrameConn(pt.Prefix16, l.query, l.stop)
	l.out, l.resolvedFn = pt.NewFrameConn(pt.Prefix16, l.answer, l.stop), l.resolved
	l.in.Attach(c)
	l.in.Await()
}

// query stamps a query on its session and starts resolving it.
func (l *relay) query(q []byte) {
	if len(q) < sessionLen+4 {
		l.stop()
		return
	}
	l.frame = pt.AppendPrefix16(l.frame[:0], nil, q)
	l.m = l.r.sessions.Touch(sessionID(q[:sessionLen]))
	// Recursive resolution work per query.
	l.r.clock.EventAt(l.r.clock.Now()+resolverDelay, l.resolvedFn)
}

// resolved sends the resolved query upstream, over a conn dialed the
// first time.
func (l *relay) resolved() {
	switch {
	case l.m.bytes > l.m.budget:
		// The resolver cuts the heavy session off: every pipeline of the
		// session dies, the tunnel collapses, and the client has to build
		// a fresh circuit (new session).
		l.stop()
	case l.out.Conn() == nil:
		l.r.clock.ReadyEvent(l.dial)
	default:
		l.out.Send(l.frame)
	}
}

// dial opens the pipeline's upstream conn. It runs from the run queue,
// where a goroutine that dialed would have started, and the dial's round
// trip is a clock event (Host.DialEvent).
func (l *relay) dial() {
	if up, err, done := l.r.host.DialEvent(l.r.serverAddr, l.dialed); done {
		l.dialed(up, err)
	}
}

// dialed forwards the first query over the conn dial opened.
func (l *relay) dialed(up *netem.Conn, err error) {
	if err != nil {
		l.stop()
		return
	}
	l.out.Attach(up)
	l.out.Send(l.frame)
}

// answer relays a query's response to the client and takes the next
// query.
func (l *relay) answer(resp []byte) {
	l.m.bytes += int64(len(resp))
	l.frame = pt.AppendPrefix16(l.frame[:0], nil, resp)
	l.in.Send(l.frame)
}

// stop ends the pipeline: both conns close, upstream first.
func (l *relay) stop() {
	if up := l.out.Conn(); up != nil {
		up.Close()
	}
	l.in.Conn().Close()
}

// Server is the authoritative dnstt endpoint, co-located with the guard.
type Server struct {
	cfg      Config
	ln       *netem.Listener
	sessions *pt.Sessions[sessionID, *serverSession]
}

// StartServer runs the dnstt server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	clock := host.Network().Clock()
	s := &Server{cfg: cfg, ln: ln}
	// The handler sees an ordinary stream; dnstt framing hides behind it.
	s.sessions = pt.NewSessions(clock, func(sessionID) *serverSession {
		ss := &serverSession{Stream: pt.NewStream(clock, "dns", "dnstt-server", "dnstt-client", serverQueue)}
		clock.ReadyEvent(func() { pt.ServeStream(ss, handle) })
		return ss
	}, (*serverSession).Fail)
	ln.Serve(s.serve)
	return s, nil
}

// Addr returns the server's contact address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// serverSession is one client's tunnel at the server: upstream query
// payloads reassemble into the stream the handler reads, and what the
// handler writes leaves one response at a time.
type serverSession struct {
	*pt.Stream
	rseq uint32
}

// answerer is one resolver pipeline at the server: each query is
// answered the instant it arrives.
type answerer struct {
	s     *Server
	in    *pt.FrameConn
	chunk []byte
	head  [4]byte
	frame []byte
}

// serve starts answering one resolver pipeline.
func (s *Server) serve(c *netem.Conn) {
	a := &answerer{s: s}
	a.in = pt.NewFrameConn(pt.Prefix16, a.answer, a.stop)
	a.in.Attach(c)
	a.in.Await()
}

// stop ends the pipeline.
func (a *answerer) stop() { a.in.Conn().Close() }

// answer feeds a query's payload into its session's stream, answers with
// up to RespCap downstream bytes, and takes the next query.
func (a *answerer) answer(q []byte) {
	if len(q) < sessionLen+4 {
		a.stop()
		return
	}
	qseq := binary.BigEndian.Uint32(q[sessionLen : sessionLen+4])
	ss := a.s.sessions.Touch(sessionID(q[:sessionLen]))
	ss.acceptUpstream(qseq, q[sessionLen+4:])

	var rseq uint32
	a.chunk, rseq = ss.takeDownstream(a.chunk, a.s.cfg.RespCap)
	binary.BigEndian.PutUint32(a.head[:], rseq)
	a.frame = pt.AppendPrefix16(a.frame[:0], a.head[:], a.chunk)
	a.in.Send(a.frame)
}

// acceptUpstream reorders query payloads into the upstream byte stream.
// Data-less polls carry no sequence number.
func (ss *serverSession) acceptUpstream(qseq uint32, data []byte) {
	if qseq != emptyQseq && len(data) > 0 {
		ss.DeliverSeq(uint64(qseq), data)
	}
}

// takeDownstream pops at most capBytes from the downstream queue into
// buf's array and numbers the chunk.
func (ss *serverSession) takeDownstream(buf []byte, capBytes int) ([]byte, uint32) {
	chunk := ss.Take(buf, capBytes)
	if len(chunk) == 0 {
		return chunk, emptyRseq
	}
	ss.rseq++
	return chunk, ss.rseq - 1
}

// Dialer is the dnstt client.
type Dialer struct {
	cfg          Config
	host         *netem.Host
	resolverAddr string

	next int64
}

// NewDialer returns a dnstt client that tunnels through the resolver.
func NewDialer(host *netem.Host, resolverAddr string, cfg Config) *Dialer {
	return &Dialer{cfg: cfg.withDefaults(), host: host, resolverAddr: resolverAddr, next: cfg.Seed}
}

// Dial implements pt.Dialer.
func (d *Dialer) Dial(target string) (netem.Stream, error) {
	if err := d.cfg.check(); err != nil {
		return nil, err
	}
	d.next++
	sid := uint64(d.next) * 2654435761

	// Open the poll pipelines up front; each is one "DoH connection".
	conns := make([]*netem.Conn, 0, d.cfg.Inflight)
	for i := 0; i < d.cfg.Inflight; i++ {
		c, err := d.host.Dial(d.resolverAddr)
		if err != nil {
			for _, cc := range conns {
				cc.Close()
			}
			return nil, fmt.Errorf("dnstt: resolver unreachable: %w", err)
		}
		conns = append(conns, c.(*netem.Conn))
	}
	clock := d.host.Network().Clock()
	t := &tunnelConn{
		Stream:   pt.NewStream(clock, "dns", "dnstt-client", "dnstt-tunnel", clientQueue),
		queryCap: d.cfg.QueryCap,
		clock:    clock,
	}
	// The first queries go out once the caller parks, so they carry the
	// target prologue written below.
	clock.ReadyEvent(func() {
		for _, c := range conns {
			p := &poller{t: t, idle: firstIdlePoll}
			p.in, p.pollFn = pt.NewFrameConn(pt.Prefix16, p.response, p.stop), p.poll
			binary.BigEndian.PutUint64(p.head[:sessionLen], sid)
			p.in.Attach(c)
			p.poll()
		}
	})
	if err := pt.WriteTarget(t, target); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// tunnelConn is the client-side stream over the poll pipelines.
type tunnelConn struct {
	*pt.Stream
	queryCap int
	clock    *netem.Clock

	qseq uint32
}

// takeUpstream pops up to QueryCap pending upstream bytes into buf's
// array and numbers them; a data-less poll consumes no sequence number.
func (t *tunnelConn) takeUpstream(buf []byte) ([]byte, uint32) {
	data := t.Take(buf, t.queryCap)
	if len(data) == 0 {
		return data, emptyQseq
	}
	t.qseq++
	return data, t.qseq - 1
}

// firstIdlePoll is the first idle back-off; each next one is half longer.
const firstIdlePoll = 50 * time.Millisecond

// poller is one poll pipeline of the client: a query (data or an empty
// poll) goes out, its response is delivered when it arrives, and the
// next query follows at once, or after an idle back-off.
type poller struct {
	t      *tunnelConn
	in     *pt.FrameConn
	data   []byte
	head   [sessionLen + 4]byte
	frame  []byte
	idle   time.Duration // the next idle back-off
	pollFn func()        // p.poll, bound once
}

// poll sends the next query and awaits its response, or stops the
// pipeline once the tunnel has closed.
func (p *poller) poll() {
	if p.t.Closed() {
		p.stop()
		return
	}
	var qseq uint32
	p.data, qseq = p.t.takeUpstream(p.data)
	binary.BigEndian.PutUint32(p.head[sessionLen:], qseq)
	p.frame = pt.AppendPrefix16(p.frame[:0], p.head[:], p.data)
	p.in.Send(p.frame)
}

// response delivers a query's response and paces the next query.
func (p *poller) response(resp []byte) {
	if len(resp) < 4 {
		p.stop()
		return
	}
	rseq := binary.BigEndian.Uint32(resp[:4])
	gotData := rseq != emptyRseq && len(resp) > 4
	if gotData {
		p.t.DeliverSeq(uint64(rseq), resp[4:])
	}
	if len(p.data) == 0 && !gotData {
		// Idle: back off, like dnstt's poll pacing.
		p.t.clock.EventAt(p.t.clock.Now()+p.idle, p.pollFn)
		if p.idle < time.Second {
			p.idle += p.idle / 2
		}
		return
	}
	p.idle = firstIdlePoll
	p.poll()
}

// stop ends the pipeline, and with it the tunnel.
func (p *poller) stop() {
	p.t.Fail()
	p.in.Conn().Close()
}
