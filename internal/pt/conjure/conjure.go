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
	defer c.Close()
	pt.Handshake{Steps: []pt.Step{{N: nonceLen + macLen, Check: inf.register}, pt.Send([]byte{0x01})}}.Run(c, 0)
}

func (inf *Infra) register(_ *pt.Transcript, msg []byte) (int, error) {
	if !inf.tag.Check(msg[nonceLen:], 0, msg[:nonceLen]) {
		return 0, ErrAuth
	}
	inf.registered[[nonceLen]byte(msg)] = true
	return 0, nil
}

// serveFlow validates one phantom flow's registration and splices it to
// the bridge.
func (inf *Infra) serveFlow(c *netem.Conn) {
	down, err := pt.Handshake{Steps: []pt.Step{{N: nonceLen, Check: inf.claim}}, Records: inf.forward}.Run(c, 0)
	if err != nil {
		c.Close()
		return
	}
	pt.Splice(inf.stationHst.Network().Clock(), c, down)
}

// claim uses up the nonce's registration. Unregistered flows to phantom
// IPs look like scans; the station lets them time out.
func (inf *Infra) claim(_ *pt.Transcript, nonce []byte) (int, error) {
	if !inf.registered[[nonceLen]byte(nonce)] {
		return 0, ErrNotRegistered
	}
	delete(inf.registered, [nonceLen]byte(nonce))
	return 0, nil
}

// forward dials the bridge, the conn a claimed flow is spliced to, and
// forwards the nonce: the bridge reads it before the records.
func (inf *Infra) forward(_ netem.Stream, t *pt.Transcript) (netem.Stream, error) {
	down, err := inf.stationHst.Dial(inf.bridgeAddr)
	if err != nil {
		return nil, err
	}
	if _, err := down.Write(t.Flights[0]); err != nil {
		down.Close()
		return nil, err
	}
	return down, nil
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

	seed int64
}

// NewDialer returns a conjure client using the given infrastructure.
func NewDialer(host *netem.Host, registrarAddr, phantomAddr string, cfg Config) *Dialer {
	return &Dialer{
		host:          host,
		registrarAddr: registrarAddr,
		phantomAddr:   phantomAddr,
		cfg:           cfg,
		seed:          cfg.Seed + 86028157,
	}
}

// Dial implements pt.Dialer: register, dial the phantom, speak the
// session's records.
func (d *Dialer) Dial(target string) (netem.Stream, error) {
	if len(d.cfg.Secret) == 0 {
		return nil, errors.New("conjure: dialer needs a secret")
	}
	d.seed++
	s := d.seed

	// Registration round trip. The nonce is the first draw of the
	// conn's seed, here and on the phantom conn.
	reg, err := d.host.Dial(d.registrarAddr)
	if err != nil {
		return nil, fmt.Errorf("conjure: registrar unreachable: %w", err)
	}
	_, err = pt.Handshake{Steps: []pt.Step{{Send: func(t *pt.Transcript) []byte {
		msg := make([]byte, nonceLen+macLen)
		pt.RandFill(t.Rand, msg[:nonceLen])
		tag := pt.NewTag("conjure", d.cfg.Secret)
		tag.Put(msg[nonceLen:], 0, msg[:nonceLen])
		return msg
	}}, {N: 1}}}.Run(reg, s)
	reg.Close()
	if err != nil {
		return nil, fmt.Errorf("conjure: registration rejected: %w", err)
	}

	// Phantom dial through the station: the nonce names the
	// registration, then the session's records follow.
	conn, err := pt.DialWrapped(d.host, d.phantomAddr, func(raw netem.Stream) (netem.Stream, error) {
		return pt.Handshake{Steps: []pt.Step{pt.Random(nonceLen)}, Records: func(conn netem.Stream, t *pt.Transcript) (netem.Stream, error) {
			return pt.NewRecordConn(conn, pt.RecordConfig{Header: tlsAppHeader, Seed: t.Seed + 1})
		}}.Run(raw, s)
	}, target)
	if err != nil {
		return nil, fmt.Errorf("conjure: phantom flow: %w", err)
	}
	return conn, nil
}
