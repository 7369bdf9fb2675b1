package netem

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

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
// one round trip (the transport handshake) on the virtual clock.
func (h *Host) Dial(address string) (Stream, error) {
	c, err, _ := h.DialEvent(address, nil)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// DialEvent is Dial for an event callback, which must not park, and Dial
// itself for a nil fn. It returns done with what Dial would have
// returned, or, where Dial would sleep out the handshake's round trip,
// arms fn at the instant the sleeper would have woken (Clock.EventAt)
// and returns done false; fn then gets the conn or the error. A
// round trip that nothing else can beat passes in place for fn too, as
// Sleep's does (Clock.advanceIdle), so the timer heap sees the waits
// the parked dialer had, in its order.
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
	if pol := h.net.policy; pol != nil {
		if err := pol.FilterDial(h.name, address); err != nil {
			// A censored dial still costs a round trip: the SYN travels
			// to the interception point and the injected refusal (or
			// the black-holed SYN's RST) travels back.
			h.net.acct.addDial(true)
			return h.handshake(rtt, nil, err, fn)
		}
	}
	h.net.acct.addDial(false)
	seed := h.net.nextSeed()
	cc, sc := newConnPair(h.net, localAddr, remoteAddr, out, in, seed)

	// Deliver the server side after one one-way delay (the SYN), then
	// return to the dialer after the full handshake round trip. The SYN
	// is a pure data-plane event — deliver (TrySend) and Abort never
	// park — so it runs as an inline clock event instead of costing a
	// goroutine spawn per dial.
	clk := h.net.clock
	clk.EventAt(clk.Now()+out.delay, func() {
		if err := l.deliver(sc); err != nil {
			// Abort both endpoints: the server side was never accepted,
			// and leaving it half-open would count as a live flow in
			// the accounting forever.
			sc.Abort()
			cc.Abort()
		}
	})
	return h.handshake(rtt, cc, nil, fn)
}

// handshake is the one wait of a dial, its round trip: a Sleep for a
// nil fn, fn's arm otherwise. Once it is over, the dial opens cc, or
// fails with err.
func (h *Host) handshake(rtt time.Duration, cc *Conn, err error, fn func(*Conn, error)) (*Conn, error, bool) {
	clk := h.net.clock
	if fn == nil {
		clk.Sleep(rtt)
	} else if vt := clk.Now() + rtt; rtt > 0 && !clk.advanceIdle(vt) {
		clk.EventAt(vt, func() { fn(h.open(cc, err)) })
		return nil, nil, false
	}
	c, e := h.open(cc, err)
	return c, e, true
}

// open ends a dial whose round trip is over.
func (h *Host) open(cc *Conn, err error) (*Conn, error) {
	if pol := h.net.policy; pol != nil && err == nil {
		pol.ConnOpened(cc)
	}
	return cc, err
}

func (h *Host) ephemeral() int {
	h.nextPort++
	return 40000 + h.nextPort
}
