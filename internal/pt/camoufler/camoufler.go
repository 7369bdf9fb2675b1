// Package camoufler implements the IM-app tunneling transport: censored
// bytes travel as instant messages between the client's IM account and a
// proxy-side account, relayed by the IM provider's servers. The censor
// sees only end-to-end-encrypted IM traffic.
//
// The performance-defining constraints from the paper are implemented
// literally:
//
//   - content is chunked into IM messages of bounded size,
//   - the provider rate-limits messages per account (the API limits the
//     paper blames for camoufler's 12.8 s web and 173 s/50 MB results),
//   - each message pays a server-side delivery latency,
//   - a small per-message loss probability models dropped messages: with
//     no retransmission the tunnel stalls, the paper's ~10% outright
//     failures,
//   - only one stream can use the account pair at a time, which is why
//     the paper could not evaluate camoufler under selenium.
//
// camoufler is an integration-set-2 transport.
package camoufler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// Defaults tuned to public IM API limits: messages deliver with high
// latency (IM servers fan out through their own infrastructure) but the
// API sustains a moderate message rate, so camoufler's bulk throughput
// is tolerable while its interactive latency is poor — exactly the
// paper's finding (12.8 s web access yet 173 s for a 50 MB file).
const (
	// DefaultMessageCap is the payload per IM message.
	DefaultMessageCap = 4 << 10
	// DefaultRatePerSec is the per-account message rate limit.
	DefaultRatePerSec = 64
	// DeliveryDelay is the provider's per-message delivery latency
	// (pipelined, FIFO).
	DeliveryDelay = 600 * time.Millisecond
	// DefaultLossProb is the chance one message never arrives.
	DefaultLossProb = 0.0006
)

// Config parameterizes the tunnel.
type Config struct {
	// MessageCap overrides DefaultMessageCap.
	MessageCap int
	// RatePerSec overrides DefaultRatePerSec.
	RatePerSec float64
	// LossProb overrides DefaultLossProb (negative disables loss).
	LossProb float64
	// Seed drives loss draws.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MessageCap <= 0 {
		c.MessageCap = DefaultMessageCap
	}
	// What a frame's 16-bit length leaves beside the longest account name.
	c.MessageCap = min(c.MessageCap, math.MaxUint16-1-255-8)
	if c.RatePerSec <= 0 {
		c.RatePerSec = DefaultRatePerSec
	}
	if c.LossProb == 0 {
		c.LossProb = DefaultLossProb
	}
	if c.LossProb < 0 {
		c.LossProb = 0
	}
	return c
}

// Message frame on IM-server connections:
//
//	[2B total len][1B to-len][to][8B seq][payload]
//
// appended to a buffer, or read into *buf's array, that the calling loop
// keeps: a payload read is valid until the next read into the same
// buffer.
func appendMessage(dst []byte, to string, seq uint64, payload []byte) ([]byte, error) {
	if len(to) > 255 {
		return dst, errors.New("camoufler: account name too long")
	}
	n := 1 + len(to) + 8 + len(payload)
	if n > math.MaxUint16 {
		return dst, errors.New("camoufler: message too long for its length field")
	}
	dst = append(binary.BigEndian.AppendUint16(dst, uint16(n)), byte(len(to)))
	return append(binary.BigEndian.AppendUint64(append(dst, to...), seq), payload...), nil
}

// parseMessage splits a message's body, what follows its length, into
// addressee, sequence number and payload.
func parseMessage(b []byte) (to []byte, seq uint64, payload []byte, err error) {
	if len(b) < 9 {
		return nil, 0, nil, errors.New("camoufler: short message")
	}
	toLen := int(b[0])
	if 1+toLen+8 > len(b) {
		return nil, 0, nil, errors.New("camoufler: malformed message")
	}
	return b[1 : 1+toLen], binary.BigEndian.Uint64(b[1+toLen:]), b[1+toLen+8:], nil
}

// IMServer is the instant-messaging provider: accounts connect, send
// rate-limited messages, and receive messages addressed to them.
type IMServer struct {
	cfg   Config
	ln    *netem.Listener
	clock *netem.Clock
	slot  time.Duration // one message's share of an account's rate limit

	accounts map[string]*account
	rng      *rand.Rand
}

// link is the provider's end of an account's conn: a *netem.Conn, or a
// test's wrapper that traces the calls made on one.
type link interface {
	netem.EventReader
	TryWrite(p []byte) (ok bool, err error)
	Close() error
}

type account struct {
	s    *IMServer
	conn link
	// The read loop reads each message into rbuf, got bytes of it so
	// far. name is the account's, from its login; to is the addressee
	// of the last message read, and out its delivery to dst while it
	// waits out the rate limit, its payload still in rbuf.
	rbuf []byte
	got  int
	name string
	to   string
	out  delivery
	dst  *account
	// sendFree enforces the per-account API rate limit (virtual time
	// at which the account may send its next message).
	sendFree time.Duration
	// inbox[inHead:] is the inbound queue: messages wait out the
	// provider's delivery latency here, pipelined but FIFO, and leave
	// from a chain of clock events (deliver) while it is not empty.
	inbox  []delivery
	inHead int
	wbuf   []byte
	// contacts are accounts this one exchanged messages with; they get
	// an unavailable-presence notification when it disconnects. It is
	// made at login.
	contacts map[string]bool
	// spare holds the arrays of the payloads this account sent that
	// were delivered or dropped, for the next ones it queues.
	spare [][]byte
	// deliverFn, readFn and relayFn are deliver, read and relayed,
	// bound once.
	deliverFn, readFn, relayFn func()
}

// delivery is one queued message with its delivery due time. payload is
// the one copy the provider makes of a message, in an array of src.spare.
type delivery struct {
	from    string
	src     *account
	seq     uint64
	payload []byte
	at      time.Duration
	stop    bool
}

// done hands a delivery's payload array back to the account that sent it.
func (d delivery) done() {
	if d.payload != nil {
		d.src.spare = append(d.src.spare, d.payload)
	}
}

// queue adds d to the account's inbox, whose first message arms the
// delivery chain; a full inbox drops it.
func (a *account) queue(d delivery) {
	n := len(a.inbox) - a.inHead
	if n >= 512 {
		d.done()
		return
	}
	a.inbox, a.inHead = netem.Compact(a.inbox, a.inHead, 1)
	if a.inbox = append(a.inbox, d); n == 0 {
		a.s.clock.EventAt(d.at, a.deliverFn)
	}
}

// deliver is the delivery chain: it writes the inbox's head and each
// next one already due, and arms the first that is not. It stops at the
// stop sentinel, and a failed write leaves one in its place. A refused
// write is offered again one rate slot later (DESIGN.md "Inline event
// execution").
func (a *account) deliver() {
	clock := a.s.clock
	for a.inHead < len(a.inbox) {
		d := a.inbox[a.inHead]
		if d.stop {
			return
		}
		if d.at > clock.Now() {
			clock.EventAt(d.at, a.deliverFn)
			return
		}
		ok := true
		b, err := appendMessage(a.wbuf[:0], d.from, d.seq, d.payload)
		if a.wbuf = b; err == nil {
			ok, err = a.conn.TryWrite(b)
		}
		if !ok {
			clock.EventAt(clock.Now()+a.s.slot, a.deliverFn)
			return
		}
		d.done()
		if err != nil {
			a.inbox[a.inHead] = delivery{stop: true}
			return
		}
		a.inbox[a.inHead] = delivery{}
		a.inHead++
	}
}

// presenceGoneSeq marks an unavailable-presence notification from the
// provider. Data messages use seq ≥ 1 and the login frame seq 0, so the
// value can never collide with a tunnel sequence number.
const presenceGoneSeq = ^uint64(0)

// StartIMServer runs the provider on host:port.
func StartIMServer(host *netem.Host, port int, cfg Config) (*IMServer, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	s := &IMServer{
		cfg:      cfg.withDefaults(),
		ln:       ln,
		clock:    host.Network().Clock(),
		accounts: make(map[string]*account),
		rng:      sim.NewRand(cfg.Seed + 2),
	}
	s.slot = time.Duration(float64(time.Second) / s.cfg.RatePerSec)
	ln.Serve(func(c *netem.Conn) { s.serveConn(c) })
	return s, nil
}

// Addr returns the provider's contact address.
func (s *IMServer) Addr() string { return s.ln.Addr().String() }

// serveConn serves one account's conn: its first message names the
// account (the login), and the ones after it are relayed.
func (s *IMServer) serveConn(c link) {
	a := &account{s: s, conn: c}
	a.deliverFn, a.readFn, a.relayFn = a.deliver, a.read, a.relayed
	a.read()
}

// read is the account's read loop, a chain of clock events: it reads
// each message into rbuf as io.ReadFull read it, the 2-byte length and
// then the body, one Read at a time, and hands it to message. A read
// that fails hangs up.
func (a *account) read() {
	for {
		want := 2
		if a.got >= 2 {
			want += int(binary.BigEndian.Uint16(a.rbuf))
		}
		if a.got == want {
			if a.got = 0; !a.message(a.rbuf[2:want]) {
				return
			}
			continue
		}
		a.rbuf = slices.Grow(a.rbuf[:a.got], want-a.got)[:want]
		n, err, done := a.conn.ReadEvent(a.rbuf[a.got:], a.readFn)
		if !done {
			return
		}
		if a.got += n; err != nil {
			a.hangUp()
			return
		}
	}
}

// message takes one message the account sent: the login, then messages
// to relay. A message is relayed once it has waited out the account's
// rate limit, which an event at its end does. message reports whether
// the read loop goes on now.
func (a *account) message(b []byte) bool {
	to, seq, payload, err := parseMessage(b)
	if err != nil {
		a.hangUp()
		return false
	}
	s := a.s
	if a.contacts == nil {
		a.name, a.contacts = string(to), make(map[string]bool)
		s.accounts[a.name] = a
		return true
	}
	if a.to != string(to) { // a run of messages to one peer names it once
		a.to = string(to)
	}
	// API rate limit: the sender's next slot.
	now := s.clock.Now()
	a.sendFree = max(a.sendFree, now)
	wait := a.sendFree - now
	a.sendFree += s.slot
	dropped := s.cfg.LossProb > 0 && s.rng.Float64() < s.cfg.LossProb
	if a.dst = s.accounts[a.to]; a.dst != nil {
		a.contacts[a.to] = true
		a.dst.contacts[a.name] = true
	}
	if dropped {
		a.dst = nil
	}
	a.out = delivery{from: a.name, src: a, seq: seq, payload: payload}
	if wait > 0 {
		s.clock.EventAt(now+wait, a.relayFn)
		return false
	}
	a.relay()
	return true
}

// relay queues the message read for its addressee, unless it was
// dropped or the addressee was offline: a copy of its payload, due
// after the delivery latency. Inbox overflow behaves like a dropped
// message.
func (a *account) relay() {
	if a.dst == nil {
		return
	}
	d := a.out
	d.at = a.s.clock.Now() + DeliveryDelay
	var spare []byte
	if n := len(a.spare); n > 0 {
		spare, a.spare = a.spare[n-1], a.spare[:n-1]
	}
	d.payload = append(spare[:0], d.payload...)
	a.dst.queue(d)
}

// relayed is relay at the end of a rate-limit wait; the read loop goes
// on after it.
func (a *account) relayed() {
	a.relay()
	a.read()
}

// hangUp closes the account's conn. An account that logged in goes
// offline first: contacts still online learn it went away, like an XMPP
// roster update — without it the proxy side of an abandoned session
// waits for messages forever — and its delivery chain stops; late
// producers' messages fall into its inbox or are dropped.
func (a *account) hangUp() {
	if s := a.s; a.contacts != nil {
		if s.accounts[a.name] == a {
			delete(s.accounts, a.name)
		}
		contacts := make([]string, 0, len(a.contacts))
		for peer := range a.contacts {
			contacts = append(contacts, peer)
		}
		sort.Strings(contacts) // map order must not reach the scheduler
		gone := delivery{from: a.name, seq: presenceGoneSeq, at: s.clock.Now() + DeliveryDelay}
		for _, peer := range contacts {
			if dst := s.accounts[peer]; dst != nil {
				dst.queue(gone)
			}
		}
		a.queue(delivery{stop: true})
	}
	a.conn.Close()
}

// imConn is one end of the IM tunnel: a netem.Stream whose bytes travel as
// messages between two accounts. Writes go straight to the provider as
// messages; only the read half of the stream is used.
type imConn struct {
	*pt.Stream
	cap     int
	self    string
	peer    string
	conn    *netem.Conn // to the IM server
	in      *pt.FrameConn
	sendSeq uint64
	wbuf    []byte // the message being written
	// A write keeps a message the IM conn has not taken whole (an event
	// write across its waits) in wbuf: sent bytes of it so far, payload
	// bytes of p in it.
	sending       bool
	sent, payload int
	onClose       func()
}

func newIMConn(clock *netem.Clock, conn *netem.Conn, self, peer string, capBytes int) *imConn {
	ic := &imConn{Stream: pt.NewStream(clock, "im", self, peer, 0), cap: capBytes, self: self, peer: peer, conn: conn}
	ic.in = pt.NewFrameConn(pt.Prefix16, ic.message, ic.Fail)
	ic.in.Attach(conn)
	ic.in.Await()
	return ic
}

// login is the message that announces the account to the provider,
// built in wbuf.
func (ic *imConn) login() ([]byte, error) {
	var err error
	ic.wbuf, err = appendMessage(ic.wbuf[:0], ic.self, 0, nil)
	return ic.wbuf, err
}

// message takes one message from the provider. The tunnel is over when
// the provider hangs up, a message does not parse, or the peer account
// logs off.
func (ic *imConn) message(b []byte) {
	from, seq, payload, err := parseMessage(b)
	switch {
	case err != nil || seq == presenceGoneSeq && string(from) == ic.peer:
		ic.in.Stop()
		return
	case seq >= 1 && seq != presenceGoneSeq:
		// Data messages carry seq ≥ 1 (seq 0 is the login frame). They
		// can arrive out of order, and a lost one leaves a permanent
		// gap: the stream stalls, there is no retransmit.
		ic.DeliverSeq(seq-1, payload)
	}
	ic.in.Await()
}

// Write implements netem.Stream: chunk into messages.
func (ic *imConn) Write(p []byte) (int, error) {
	n, err, _ := ic.WriteEvent(p, nil)
	return n, err
}

// WriteEvent is Write for an event callback, with the contract of
// netem.Conn.WriteEvent, or Write itself for a nil again: a message is
// framed where Write frames it, and one the IM conn has not taken whole
// waits in wbuf, its payload counted in n.
func (ic *imConn) WriteEvent(p []byte, again func()) (n int, err error, done bool) {
	for {
		if ic.sending {
			k, err, done := ic.conn.WriteEvent(ic.wbuf[ic.sent:], again)
			if ic.sent += k; !done {
				return n, nil, false
			}
			if ic.sending = false; err != nil {
				return max(n-ic.payload, 0), err, true
			}
		}
		if len(p) == 0 {
			return n, nil, true
		}
		k := min(len(p), ic.cap)
		ic.sendSeq++
		if ic.wbuf, err = appendMessage(ic.wbuf[:0], ic.peer, ic.sendSeq, p[:k]); err != nil {
			return n, err, true
		}
		ic.sending, ic.sent, ic.payload = true, 0, k
		n += k
		p = p[k:]
	}
}

// Close implements netem.Stream. onClose runs only when this call is what
// ended the tunnel, not when the provider or the peer already had.
func (ic *imConn) Close() error {
	wasClosed := ic.Closed()
	ic.Fail()
	if !wasClosed && ic.onClose != nil {
		ic.onClose()
	}
	return ic.conn.Close()
}

// Proxy is the uncensored-side camoufler endpoint: it logs into the
// proxy account and serves each client session.
type Proxy struct {
	cfg    Config
	host   *netem.Host
	imAddr string
	acct   string
	handle pt.StreamHandler
}

// StartProxy launches the proxy side. Each client session uses a fresh
// account pair "<base>-cN" / "<base>-pN"; the proxy pre-registers its
// account when the client announces the session (first message on the
// control account).
//
// For simulation simplicity the proxy listens on a family of accounts:
// clients derive the pair from their session number.
func StartProxy(host *netem.Host, imServerAddr, accountBase string, cfg Config, handle pt.StreamHandler) (*Proxy, error) {
	p := &Proxy{
		cfg:    cfg.withDefaults(),
		host:   host,
		imAddr: imServerAddr,
		acct:   accountBase,
		handle: handle,
	}
	return p, nil
}

// Dialer is the camoufler client. It admits a single concurrent stream:
// concurrent dials fail, mirroring the paper's observation that
// camoufler cannot serve selenium's parallel requests.
type Dialer struct {
	cfg    Config
	host   *netem.Host
	imAddr string
	acct   string
	proxy  *Proxy

	session uint64
	active  bool
}

// ErrBusy reports a second concurrent stream on the account pair.
var ErrBusy = errors.New("camoufler: account pair already carries a stream")

// NewDialer returns the camoufler client bound to the proxy deployment.
func NewDialer(host *netem.Host, imServerAddr, accountBase string, cfg Config, proxy *Proxy) *Dialer {
	return &Dialer{
		cfg:    cfg.withDefaults(),
		host:   host,
		imAddr: imServerAddr,
		acct:   accountBase,
		proxy:  proxy,
	}
}

// DialEvent implements pt.Dialer.
func (d *Dialer) DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	if d.active {
		return nil, ErrBusy, true
	}
	d.active = true
	d.session++
	x := &dial{d: d, target: target, n: d.session}
	return x.Play(x, done)
}

// dial is one dial under way: the proxy logs its account for session n
// in and serves it, then the client logs its own in and writes the
// target prologue. ic is the account being logged in.
type dial struct {
	pt.Chain
	d      *Dialer
	target string
	n      uint64
	ic     *imConn
}

func (x *dial) Next() {
	c, d, p := &x.Chain, x.d, x.d.proxy
	if c.Err != nil {
		if c.At == 2 || c.At >= 4 { // a login or the prologue failed
			x.ic.Close()
		}
		if c.At < 4 { // from then on the client's Close releases
			d.release()
		}
		c.End(nil, c.Err)
		return
	}
	switch c.At {
	case 0:
		c.Dial(p.host, p.imAddr)
	case 1:
		x.ic = newIMConn(p.host.Network().Clock(), c.Raw, fmt.Sprintf("%s-p%d", p.acct, x.n), fmt.Sprintf("%s-c%d", p.acct, x.n), p.cfg.MessageCap)
		x.login()
	case 2:
		ic := x.ic
		p.host.Network().Clock().ReadyEvent(func() { pt.ServeStream(ic, p.handle) })
		c.Dial(d.host, d.imAddr)
	case 3:
		x.ic = newIMConn(d.host.Network().Clock(), c.Raw, fmt.Sprintf("%s-c%d", d.acct, x.n), fmt.Sprintf("%s-p%d", d.acct, x.n), d.cfg.MessageCap)
		x.ic.onClose = d.release
		x.login()
	case 4:
		c.WriteTarget(x.ic, x.target)
	default:
		c.End(x.ic, nil)
	}
}

// login writes the account's login message.
func (x *dial) login() {
	if msg, err := x.ic.login(); err != nil {
		x.Err = err
	} else {
		x.Write(x.ic.conn, msg)
	}
}

// release frees the account pair for the next stream.
func (d *Dialer) release() { d.active = false }
