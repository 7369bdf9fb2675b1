// Package conjure implements the refraction-networking transport: the
// client first registers a session with the conjure registrar, then
// connects to a phantom IP in the deploying ISP's unused address space.
// The ISP's station recognizes the registered flow and proxies it to the
// Tor bridge; a censor sees a TLS connection to an address that hosts
// nothing.
//
// What is modelled is the measurable structure and its refusals: one
// registration round trip whose MAC a client without the station's
// secret cannot make, one phantom dial through the station (an extra
// forwarding point inside the ISP) that a flow without a registration
// never gets past, and records of the real wire size. Record payloads
// are sent as they are; nothing is secret.
// conjure is an integration-set-1 transport (bridge = guard).
package conjure

import (
	"errors"
	"fmt"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

const (
	nonceLen = 32
	macLen   = 16
)

var tlsAppHeader = []byte{0x17, 0x03, 0x03}

// Errors reported by the conjure control plane.
var (
	// ErrNotRegistered means a phantom flow arrived with no matching
	// registration.
	ErrNotRegistered = errors.New("conjure: flow not registered")
	// ErrAuth reports a bad registration MAC.
	ErrAuth = errors.New("conjure: registration authentication failed")
)

// Config carries the transport parameters.
type Config struct {
	// Secret is the shared secret between clients and the station
	// (standing in for the station's public key).
	Secret []byte
	// Seed drives nonce generation.
	Seed int64
}

// Infra is the ISP-side deployment: registrar plus station.
type Infra struct {
	// tag is the station's key for registration MACs.
	tag        pt.Tag
	bridgeAddr string
	stationHst *netem.Host

	regLn     *netem.Listener
	phantomLn *netem.Listener

	registered map[[nonceLen]byte]bool
}

// StartInfra deploys the registrar on registrarHost:regPort and the
// station's phantom subnet on stationHost:phantomPort. Valid flows are
// proxied to bridgeAddr.
func StartInfra(registrarHost, stationHost *netem.Host, regPort, phantomPort int, cfg Config, bridgeAddr string) (*Infra, error) {
	if len(cfg.Secret) == 0 {
		return nil, errors.New("conjure: infra needs a secret")
	}
	regLn, err := registrarHost.Listen(regPort)
	if err != nil {
		return nil, err
	}
	phantomLn, err := stationHost.Listen(phantomPort)
	if err != nil {
		regLn.Close()
		return nil, err
	}
	inf := &Infra{
		tag:        pt.NewTag("conjure", cfg.Secret),
		bridgeAddr: bridgeAddr,
		stationHst: stationHost,
		regLn:      regLn,
		phantomLn:  phantomLn,
		registered: make(map[[nonceLen]byte]bool),
	}
	regLn.Serve(inf.serveRegistration)
	phantomLn.Serve(inf.serveFlow)
	return inf, nil
}

// RegistrarAddr returns the registrar's contact address.
func (inf *Infra) RegistrarAddr() string { return inf.regLn.Addr().String() }

// PhantomAddr returns the phantom address clients dial.
func (inf *Infra) PhantomAddr() string { return inf.phantomLn.Addr().String() }

// serveRegistration takes one registration: nonce ‖ MAC → ack. A bad
// MAC gets no ack, like a real registrar's silent drop.
func (inf *Infra) serveRegistration(c *netem.Conn) {
	closeFn := func(netem.Stream, error) { c.Close() }
	hs := pt.Handshake{Steps: []pt.Step{{N: nonceLen + macLen, Check: inf.register}, pt.Send([]byte{0x01})}}
	if _, _, done := hs.RunEvent(c, 0, closeFn); done {
		c.Close()
	}
}

func (inf *Infra) register(_ *pt.Transcript, msg []byte) (int, error) {
	if !inf.tag.Check(msg[nonceLen:], 0, msg[:nonceLen]) {
		return 0, ErrAuth
	}
	inf.registered[[nonceLen]byte(msg)] = true
	return 0, nil
}

// flow is one phantom flow at the station: its claim, then the dial of
// the bridge it is spliced to and the nonce forwarded ahead of it, a
// chain of clock events.
type flow struct {
	inf       *Infra
	up, down  *netem.Conn
	nonce     []byte
	sent      int
	forwardFn func() // forward, bound once
}

// serveFlow validates one phantom flow's registration and splices it to
// the bridge.
func (inf *Infra) serveFlow(c *netem.Conn) {
	f := &flow{inf: inf, up: c}
	if conn, err, done := (pt.Handshake{Steps: []pt.Step{{N: nonceLen, Check: f.claim}}}).RunEvent(c, 0, f.claimed); done {
		f.claimed(conn, err)
	}
}

// claim uses up the nonce's registration. Unregistered flows to phantom
// IPs look like scans; the station lets them time out.
func (f *flow) claim(_ *pt.Transcript, nonce []byte) (int, error) {
	if !f.inf.registered[[nonceLen]byte(nonce)] {
		return 0, ErrNotRegistered
	}
	delete(f.inf.registered, [nonceLen]byte(nonce))
	f.nonce = nonce
	return 0, nil
}

// claimed dials the bridge for a claimed flow.
func (f *flow) claimed(_ netem.Stream, err error) {
	if err != nil {
		f.up.Close()
		return
	}
	if down, err, done := f.inf.stationHst.DialEvent(f.inf.bridgeAddr, f.dialed); done {
		f.dialed(down, err)
	}
}

// dialed goes on with the bridge conn once its dial is done.
func (f *flow) dialed(down *netem.Conn, err error) {
	if err != nil {
		f.up.Close()
		return
	}
	f.down, f.forwardFn = down, f.forward
	f.forward()
}

// forward writes the nonce to the bridge, which reads it before the
// records, and splices the flow to it.
func (f *flow) forward() {
	n, err, done := f.down.WriteEvent(f.nonce[f.sent:], f.forwardFn)
	if f.sent += n; !done {
		return
	}
	if err != nil {
		f.down.Close()
		f.up.Close()
		return
	}
	pt.Splice(f.inf.stationHst.Network().Clock(), f.up, f.down)
}

// StartBridge runs the conjure bridge (the PT server proper, co-located
// with the guard) on host:port. The station forwards the registration's
// nonce ahead of the records.
func StartBridge(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	return pt.WrapTransport{
		Name: "conjure", Keyed: len(cfg.Secret) > 0, Seed: cfg.Seed,
		Server: pt.Handshake{Steps: []pt.Step{{N: nonceLen}}, Records: func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
			return pt.NewRecordConn(conn, pt.RecordConfig{Header: tlsAppHeader, Seed: t.Seed})
		}},
	}.StartServer(host, port, handle)
}

// Dialer is the conjure client.
type Dialer struct {
	host          *netem.Host
	registrarAddr string
	phantomAddr   string
	cfg           Config
	// register and phantom are the client's handshakes on its two
	// conns. The nonce is the first draw of the conn's seed, on either.
	register, phantom pt.Handshake

	seed int64
}

// NewDialer returns a conjure client using the given infrastructure.
func NewDialer(host *netem.Host, registrarAddr, phantomAddr string, cfg Config) *Dialer {
	return &Dialer{
		host:          host,
		registrarAddr: registrarAddr,
		phantomAddr:   phantomAddr,
		cfg:           cfg,
		register: pt.Handshake{Steps: []pt.Step{{Send: func(t *pt.Transcript) []byte {
			msg := make([]byte, nonceLen+macLen)
			pt.RandFill(t.Rand, msg[:nonceLen])
			tag := pt.NewTag("conjure", cfg.Secret)
			tag.Put(msg[nonceLen:], 0, msg[:nonceLen])
			return msg
		}}, {N: 1}}},
		phantom: pt.Handshake{Steps: []pt.Step{pt.Random(nonceLen)}, Records: func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
			return pt.NewRecordConn(conn, pt.RecordConfig{Header: tlsAppHeader, Seed: t.Seed + 1})
		}},
		seed: cfg.Seed + 86028157,
	}
}

// DialEvent implements pt.Dialer: register, dial the phantom, speak the
// session's records.
func (d *Dialer) DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	if len(d.cfg.Secret) == 0 {
		return nil, errors.New("conjure: dialer needs a secret"), true
	}
	d.seed++
	x := &dial{d: d, target: target, seed: d.seed}
	return x.Play(x, done)
}

// dial is one dial under way: the registration round trip, then the
// phantom dial through the station, the nonce naming the registration,
// then the session's records.
type dial struct {
	pt.Chain
	d      *Dialer
	target string
	seed   int64
}

func (x *dial) Next() {
	switch c, d := &x.Chain, x.d; {
	case c.At == 0:
		c.Dial(d.host, d.registrarAddr)
	case c.At == 1 && c.Err != nil:
		c.End(nil, fmt.Errorf("conjure: registrar unreachable: %w", c.Err))
	case c.At == 1:
		c.Wait(d.register.RunEvent(c.Raw, x.seed, c.Then))
	case c.At == 2:
		if c.Raw.Close(); c.Err != nil {
			c.End(nil, fmt.Errorf("conjure: registration rejected: %w", c.Err))
		} else {
			c.Wait(pt.DialWrapped(d.host, d.phantomAddr, d.phantom, x.seed, x.target, "conjure: phantom flow", c.Then))
		}
	default:
		c.End(c.Conn, c.Err)
	}
}
