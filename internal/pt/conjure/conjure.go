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
	"io"
	"net"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

const nonceLen = 32

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

// serveRegistration takes one registration: nonce ‖ MAC → ack.
func (inf *Infra) serveRegistration(c net.Conn) {
	defer c.Close()
	msg := make([]byte, nonceLen+16)
	if _, err := io.ReadFull(c, msg); err != nil {
		return
	}
	var nonce [nonceLen]byte
	copy(nonce[:], msg[:nonceLen])
	if !inf.tag.Check(msg[nonceLen:], 0, nonce[:]) {
		return // drop silently, like a real registrar
	}
	inf.registered[nonce] = true
	c.Write([]byte{0x01}) // ack
}

// serveFlow validates one phantom flow's registration and splices it to
// the bridge.
func (inf *Infra) serveFlow(c net.Conn) {
	hello := make([]byte, nonceLen)
	if _, err := io.ReadFull(c, hello); err != nil {
		c.Close()
		return
	}
	var nonce [nonceLen]byte
	copy(nonce[:], hello)
	ok := inf.registered[nonce]
	delete(inf.registered, nonce)
	if !ok {
		// Unregistered flows to phantom IPs look like scans;
		// the station lets them time out.
		c.Close()
		return
	}
	down, err := inf.stationHst.Dial(inf.bridgeAddr)
	if err != nil {
		c.Close()
		return
	}
	// Forward the nonce: the bridge reads it before the records.
	if _, err := down.Write(nonce[:]); err != nil {
		c.Close()
		down.Close()
		return
	}
	pt.Splice(inf.stationHst.Network().Clock(), c, down)
}

// StartBridge runs the conjure bridge (the PT server proper, co-located
// with the guard) on host:port.
func StartBridge(host *netem.Host, port int, cfg Config, handle pt.StreamHandler) (pt.Server, error) {
	return pt.WrapTransport{
		Name: "conjure", Keyed: len(cfg.Secret) > 0, Seed: cfg.Seed,
		Server: func(conn net.Conn, seed int64) (net.Conn, error) {
			// The station forwards the registration's nonce ahead of
			// the records.
			nonce := make([]byte, nonceLen)
			if _, err := io.ReadFull(conn, nonce); err != nil {
				return nil, err
			}
			return pt.NewRecordConn(conn, pt.RecordConfig{
				Header: []byte{0x17, 0x03, 0x03},
				Seed:   seed,
			})
		},
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
func (d *Dialer) Dial(target string) (net.Conn, error) {
	if len(d.cfg.Secret) == 0 {
		return nil, errors.New("conjure: dialer needs a secret")
	}
	d.seed++
	s := d.seed
	msg := make([]byte, nonceLen+16)
	nonce := msg[:nonceLen]
	pt.RandFill(sim.NewRand(s), nonce)
	tag := pt.NewTag("conjure", d.cfg.Secret)
	tag.Put(msg[nonceLen:], 0, nonce)

	// Registration round trip.
	reg, err := d.host.Dial(d.registrarAddr)
	if err != nil {
		return nil, fmt.Errorf("conjure: registrar unreachable: %w", err)
	}
	if _, err := reg.Write(msg); err != nil {
		reg.Close()
		return nil, err
	}
	ack := make([]byte, 1)
	if _, err := io.ReadFull(reg, ack); err != nil {
		reg.Close()
		return nil, fmt.Errorf("conjure: registration rejected: %w", err)
	}
	reg.Close()

	// Phantom dial through the station: the nonce names the
	// registration, then the session's records follow.
	conn, err := pt.DialWrapped(d.host, d.phantomAddr, func(raw net.Conn) (net.Conn, error) {
		if _, err := raw.Write(nonce); err != nil {
			return nil, err
		}
		return pt.NewRecordConn(raw, pt.RecordConfig{
			Header: []byte{0x17, 0x03, 0x03},
			Seed:   s + 1,
		})
	}, target)
	if err != nil {
		return nil, fmt.Errorf("conjure: phantom flow: %w", err)
	}
	return conn, nil
}
