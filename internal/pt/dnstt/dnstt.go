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

// Frame layout (shared by the resolver hop and the authoritative hop):
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

// A poll pipeline moves thousands of frames, so both directions work in
// buffers their loop keeps: a frame is valid until the next read into
// the same buffer.

// writeFrame sends head and data as one frame in one Write, building it
// in *buf's array.
func writeFrame(w io.Writer, buf *[]byte, head, data []byte) error {
	b := binary.BigEndian.AppendUint16((*buf)[:0], uint16(len(head)+len(data)))
	*buf = append(append(b, head...), data...)
	_, err := w.Write(*buf)
	return err
}

// readFrame reads one frame into buf's array, grown if it is too small.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 2)[:2]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = slices.Grow(buf[:0], n)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Resolver is the recursive DoH resolver hop.
type Resolver struct {
	cfg        Config
	host       *netem.Host
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
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	clock := host.Network().Clock()
	r := &Resolver{
		cfg:        cfg.withDefaults(),
		host:       host,
		serverAddr: serverAddr,
		ln:         ln,
		rng:        sim.NewRand(cfg.Seed + 29),
	}
	r.sessions = pt.NewSessions(clock, r.newMeter, nil)
	pt.Serve(clock, ln, r.serveConn)
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

// serveConn handles one client poll pipeline: query in, response out.
// Each pipeline holds its own upstream connection so the client's
// in-flight polls proceed in parallel, as independent DNS queries would.
func (r *Resolver) serveConn(c net.Conn) {
	defer c.Close()
	clock := r.host.Network().Clock()
	var up net.Conn
	defer func() {
		if up != nil {
			up.Close()
		}
	}()
	var q, resp, wbuf []byte
	for {
		var err error
		if q, err = readFrame(c, q); err != nil {
			return
		}
		if len(q) < sessionLen+4 {
			return
		}
		m := r.sessions.Touch(sessionID(q[:sessionLen]))
		// Recursive resolution work per query.
		clock.Sleep(resolverDelay)

		if m.bytes > m.budget {
			// The resolver cuts the heavy session off: every pipeline
			// of the session dies, the tunnel collapses, and the
			// client has to build a fresh circuit (new session).
			return
		}
		if up == nil {
			up, err = r.host.Dial(r.serverAddr)
			if err != nil {
				return
			}
		}
		if err := writeFrame(up, &wbuf, nil, q); err != nil {
			return
		}
		if resp, err = readFrame(up, resp); err != nil {
			return
		}
		m.bytes += int64(len(resp))
		if err := writeFrame(c, &wbuf, nil, resp); err != nil {
			return
		}
	}
}

// Server is the authoritative dnstt endpoint, co-located with the guard.
type Server struct {
	cfg      Config
	ln       *netem.Listener
	sessions *pt.Sessions[sessionID, *serverSession]
}

// StartServer runs the dnstt server on host:port.
func StartServer(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (*Server, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	clock := host.Network().Clock()
	s := &Server{cfg: cfg.withDefaults(), ln: ln}
	// The handler sees an ordinary stream; dnstt framing hides behind it.
	s.sessions = pt.NewSessions(clock, func(sessionID) *serverSession {
		ss := &serverSession{Stream: pt.NewStream(clock, "dns", "dnstt-server", "dnstt-client", serverQueue)}
		clock.Go(func() { pt.ServeStream(ss, handle) })
		return ss
	}, (*serverSession).Fail)
	pt.Serve(clock, ln, s.serveResolverConn)
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

// serveResolverConn processes the per-session query pipe from the
// resolver.
func (s *Server) serveResolverConn(c net.Conn) {
	defer c.Close()
	var q, chunk, wbuf []byte
	var head [4]byte
	for {
		var err error
		if q, err = readFrame(c, q); err != nil {
			return
		}
		if len(q) < sessionLen+4 {
			return
		}
		qseq := binary.BigEndian.Uint32(q[sessionLen : sessionLen+4])
		ss := s.sessions.Touch(sessionID(q[:sessionLen]))
		ss.acceptUpstream(qseq, q[sessionLen+4:])

		// Answer with up to RespCap downstream bytes.
		var rseq uint32
		chunk, rseq = ss.takeDownstream(chunk, s.cfg.RespCap)
		binary.BigEndian.PutUint32(head[:], rseq)
		if err := writeFrame(c, &wbuf, head[:], chunk); err != nil {
			return
		}
	}
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
func (d *Dialer) Dial(target string) (net.Conn, error) {
	d.next++
	sid := make([]byte, sessionLen)
	binary.BigEndian.PutUint64(sid, uint64(d.next)*2654435761)

	// Open the poll pipelines up front; each is one "DoH connection".
	conns := make([]net.Conn, 0, d.cfg.Inflight)
	for i := 0; i < d.cfg.Inflight; i++ {
		c, err := d.host.Dial(d.resolverAddr)
		if err != nil {
			for _, cc := range conns {
				cc.Close()
			}
			return nil, fmt.Errorf("dnstt: resolver unreachable: %w", err)
		}
		conns = append(conns, c)
	}
	clock := d.host.Network().Clock()
	t := &tunnelConn{
		Stream:   pt.NewStream(clock, "dns", "dnstt-client", "dnstt-tunnel", clientQueue),
		queryCap: d.cfg.QueryCap,
		clock:    clock,
		sid:      sid,
	}
	for _, c := range conns {
		clock.Go(func() { t.pollLoop(c) })
	}
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
	sid      []byte

	qseq uint32
}

// pollLoop drives one pipeline: send a query (data or empty poll), read
// the response, deliver, pace.
func (t *tunnelConn) pollLoop(c net.Conn) {
	defer c.Close()
	defer t.Fail()
	idlePoll := 50 * time.Millisecond
	var data, resp, wbuf []byte
	var head [sessionLen + 4]byte
	copy(head[:], t.sid)
	for !t.Closed() {
		var qseq uint32
		data, qseq = t.takeUpstream(data)
		binary.BigEndian.PutUint32(head[sessionLen:], qseq)
		if err := writeFrame(c, &wbuf, head[:], data); err != nil {
			return
		}
		var err error
		if resp, err = readFrame(c, resp); err != nil || len(resp) < 4 {
			return
		}
		rseq := binary.BigEndian.Uint32(resp[:4])
		gotData := rseq != emptyRseq && len(resp) > 4
		if gotData {
			t.DeliverSeq(uint64(rseq), resp[4:])
		}
		if len(data) == 0 && !gotData {
			// Idle: back off, like dnstt's poll pacing.
			t.clock.Sleep(idlePoll)
			if idlePoll < time.Second {
				idlePoll += idlePoll / 2
			}
		} else {
			idlePoll = 50 * time.Millisecond
		}
	}
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
