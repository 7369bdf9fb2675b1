package netem

import (
	"fmt"
	"net"
	"strconv"
	"strings"

	"ptperf/internal/geo"
)

// HostConfig describes a virtual machine attached to the network.
type HostConfig struct {
	// Name is the unique DNS-like name of the host.
	Name string
	// Location places the host in one of the six modeled cities.
	Location geo.Location
	// Medium is the access medium (wired unless stated otherwise).
	Medium geo.Medium
	// UplinkBps / DownlinkBps are link capacities in bytes per virtual
	// second. Zero means a fast default (100 MB/s).
	UplinkBps   float64
	DownlinkBps float64
	// Utilization in [0,1) is the share of link capacity consumed by
	// background traffic (other users of a relay, CDN tenants, …).
	Utilization float64
}

// Host is a named machine on the virtual network.
type Host struct {
	net     *Network
	name    string
	loc     geo.Location
	medium  geo.Medium
	egress  *Bucket
	ingress *Bucket

	listeners map[int]*Listener
	nextPort  int
	down      bool
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Location returns the host's city.
func (h *Host) Location() geo.Location { return h.loc }

// Egress exposes the shared uplink bucket (load scenarios adjust it).
func (h *Host) Egress() *Bucket { return h.egress }

// Ingress exposes the shared downlink bucket.
func (h *Host) Ingress() *Bucket { return h.ingress }

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// SetLinkDown marks the host's access link administratively down (a
// modeled flap window, distinct from censor policy). While down, new
// dials from or to the host fail immediately with an unreachable error —
// like the no-such-host path, no accounting counters move. Conns already
// established are unaffected; a fault injector that wants them dead
// aborts them explicitly (Network.AbortHostConns).
func (h *Host) SetLinkDown(down bool) { h.down = down }

// LinkDown reports whether the host's access link is currently down.
func (h *Host) LinkDown() bool { return h.down }

// Listener accepts virtual connections on one host port.
type Listener struct {
	host *Host
	port int

	queue  *Chan[*Conn]
	closed bool
}

// Listen opens a listener on the given port (0 picks an ephemeral port).
func (h *Host) Listen(port int) (*Listener, error) {
	if port == 0 {
		h.nextPort++
		port = 40000 + h.nextPort
	}
	if _, busy := h.listeners[port]; busy {
		return nil, fmt.Errorf("netem: %s port %d already in use", h.name, port)
	}
	l := &Listener{host: h, port: port, queue: NewChan[*Conn](h.net.clock, 128)}
	h.listeners[port] = l
	return l, nil
}

// Accept parks until the next inbound connection arrives.
func (l *Listener) Accept() (Stream, error) {
	c, ok := l.queue.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Serve runs the accept loop every server shares: each accepted conn is
// handed to fn until l closes. The loop is a chain of clock events, not
// a goroutine: it starts from the run queue where a goroutine Go spawned
// now would (Clock.ReadyEvent), and waits for the next conn in the place
// of a goroutine parked in Accept (Chan.RecvEvent). fn runs from the run
// queue too, at the instant and position where a goroutine spawned for
// the conn would have started, so it is a clock event and must never
// park: a handler that reads or writes uses the event forms, and one
// whose work parks spawns it (Clock.Go). An idle listener, and a server
// between its events, holds no goroutine.
func (l *Listener) Serve(fn func(*Conn)) {
	clock := l.host.net.clock
	var next func()
	next = func() {
		for {
			c, ok, done := l.queue.RecvEvent(next)
			if !done || !ok {
				return
			}
			clock.ReadyEvent(func() { fn(c) })
		}
	}
	clock.ReadyEvent(next)
}

// Close stops the listener.
func (l *Listener) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	delete(l.host.listeners, l.port)
	l.queue.Close()
	return nil
}

// Addr returns the listener's address ("host:port").
func (l *Listener) Addr() net.Addr {
	return Addr{host: fmt.Sprintf("%s:%d", l.host.name, l.port)}
}

// deliver hands an inbound conn to the accept queue.
func (l *Listener) deliver(c *Conn) error {
	if l.closed {
		return ErrClosed
	}
	if !l.queue.TrySend(c) {
		return fmt.Errorf("netem: accept backlog full on %s:%d", l.host.name, l.port)
	}
	return nil
}

// Dial opens a shaped connection from this host to "host:port". It costs
// one round trip (the transport handshake) on the virtual clock, which
// the caller awaits parked (Await).
func (h *Host) Dial(address string) (Stream, error) {
	c, err := Await(h.net.clock, func(fn func(*Conn, error)) (*Conn, error, bool) { return h.DialEvent(address, fn) })
	if err != nil {
		return nil, err
	}
	return c, nil
}

// DialEvent is Dial's event form. It returns done with the conn or the
// error, or arms fn where a dialer would wake from the handshake's round
// trip (Clock.EventAt) and returns done false; fn then gets the conn or
// the error. A refused dial's round trip that nothing else can beat
// passes in place, as Sleep's does (Clock.advanceIdle).
func (h *Host) DialEvent(address string, fn func(*Conn, error)) (c *Conn, err error, done bool) {
	hostName, portStr, ok := strings.Cut(address, ":")
	if !ok {
		return nil, fmt.Errorf("netem: bad address %q", address), true
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("netem: bad port in %q", address), true
	}
	peer := h.net.hosts[hostName]
	if peer == nil {
		return nil, fmt.Errorf("netem: no such host %q", hostName), true
	}
	// Link-down failures resolve before any accounting, like the
	// no-such-host path: the SYN never makes it onto a pipe.
	if h.LinkDown() {
		return nil, fmt.Errorf("netem: link down on %s", h.name), true
	}
	if peer.LinkDown() {
		return nil, fmt.Errorf("netem: host %q unreachable (link down)", hostName), true
	}
	l := peer.listeners[port]
	if l == nil {
		return nil, fmt.Errorf("netem: connection refused: %s", address), true
	}

	local := append(append(make([]byte, 0, 64), h.name...), ':')
	localAddr := Addr{host: string(strconv.AppendInt(local, int64(h.ephemeral()), 10))}
	remoteAddr := Addr{host: address}
	out, in := h.net.shapes(h, peer)
	rtt := out.delay + in.delay
	clk := h.net.clock
	if pol := h.net.policy; pol != nil {
		if err := pol.FilterDial(h.name, address); err != nil {
			// A censored dial still costs a round trip: the SYN travels
			// to the interception point and the injected refusal (or
			// the black-holed SYN's RST) travels back.
			h.net.acct.addDial(true)
			if clk.SleepEvent(rtt, func() { fn(nil, err) }) {
				return nil, err, true
			}
			return nil, nil, false
		}
	}
	h.net.acct.addDial(false)
	p := newConnPair(h.net, localAddr, remoteAddr, out, in, h.net.nextSeed())

	// The SYN reaches the listener after one one-way delay, and the
	// dialer learns the outcome after the round trip. Both are pure
	// data-plane events (deliver's TrySend and Abort never park), so one
	// inline clock event, armed at both instants, plays them instead of
	// a goroutine spawn per dial.
	p.l = l
	dialed := p.dialed
	clk.EventAt(clk.Now()+out.delay, dialed)
	if rtt <= 0 {
		return p.open(), nil, true
	}
	p.fn = fn
	clk.EventAt(clk.Now()+rtt, dialed)
	return nil, nil, false
}

// dialed is a dial's clock event. At the SYN's arrival it hands the
// server end to the listener, and aborts both ends if the listener
// refuses it: left half-open, it would count as a live flow in the
// accounting forever. At the round trip's end it opens the client end
// for fn.
func (p *connPair) dialed() {
	if l := p.l; l != nil {
		if p.l = nil; l.deliver(&p.b) != nil {
			p.b.Abort()
			p.a.Abort()
		}
		return
	}
	fn := p.fn
	p.fn = nil
	fn(p.open(), nil)
}

// open ends a dial whose round trip is over.
func (p *connPair) open() *Conn {
	if pol := p.a.net.policy; pol != nil {
		pol.ConnOpened(&p.a)
	}
	return &p.a
}

func (h *Host) ephemeral() int {
	h.nextPort++
	return 40000 + h.nextPort
}
