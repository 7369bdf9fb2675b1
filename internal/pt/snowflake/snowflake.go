// Package snowflake implements the WebRTC-volunteer-proxy transport. A
// client rendezvouses once through a domain-fronted broker, which hands
// it one of the currently alive volunteer proxies; tunnel traffic then
// flows client → volunteer proxy → bridge. The properties the paper
// measures are kept:
//
//   - rendezvous costs broker round trips plus matching delay,
//   - volunteer proxies are ephemeral: each has a random lifetime, and
//     when it disappears mid-transfer the tunnel breaks — the dominant
//     cause of snowflake's partial bulk downloads (§4.6),
//   - the proxy pool has finite capacity; the Iran-unrest load scenario
//     (§5.3) shrinks per-client capacity and proxy lifetimes, degrading
//     performance exactly as Figures 10 and 12 show.
//
// snowflake is an integration-set-2 transport.
package snowflake

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// Defaults for the pool model.
const (
	// DefaultProxies is the pool size.
	DefaultProxies = 6
	// DefaultProxyLifetime is the mean exponential proxy lifetime.
	DefaultProxyLifetime = 90 * time.Second
	// DefaultProxyUplink is a volunteer's home-connection uplink in
	// bytes per virtual second.
	DefaultProxyUplink = 3 << 20
)

// matchDelay is the broker's matching time.
const matchDelay = 600 * time.Millisecond

// Config parameterizes the deployment.
type Config struct {
	// Proxies overrides DefaultProxies.
	Proxies int
	// ProxyLifetime overrides DefaultProxyLifetime (mean; exponential).
	// Negative disables churn.
	ProxyLifetime time.Duration
	// ProxyUplink overrides DefaultProxyUplink.
	ProxyUplink float64
	// Seed drives lifetimes and assignment.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Proxies <= 0 {
		c.Proxies = DefaultProxies
	}
	if c.ProxyLifetime == 0 {
		c.ProxyLifetime = DefaultProxyLifetime
	}
	if c.ProxyUplink <= 0 {
		c.ProxyUplink = DefaultProxyUplink
	}
	return c
}

// Deployment is the running snowflake infrastructure.
type Deployment struct {
	cfg        Config
	net        *netem.Network
	brokerLn   *netem.Listener
	bridgeAddr string

	rng     *rand.Rand
	proxies []*proxy
	nextID  int
	// utilization is the volunteers' background load ([0,1)), 0 until
	// SetLoad raises it (the post-September scenario).
	utilization float64
}

// proxy is one volunteer.
type proxy struct {
	dep   *Deployment
	host  *netem.Host
	ln    *netem.Listener
	addr  string
	conns []*netem.Conn
	dead  bool
}

// Deploy launches the broker on brokerHost:brokerPort and the initial
// proxy pool; tunnelled flows are spliced to bridgeAddr... the target
// carried by each stream prologue (the guard the client Tor picked).
func Deploy(brokerHost *netem.Host, brokerPort int, cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	ln, err := brokerHost.Listen(brokerPort)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		cfg:      cfg,
		net:      brokerHost.Network(),
		brokerLn: ln,
		rng:      sim.NewRand(cfg.Seed + 5),
	}
	for i := 0; i < cfg.Proxies; i++ {
		if err := d.spawnProxy(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	ln.Serve(d.serveRendezvous)
	return d, nil
}

// BrokerAddr is the rendezvous address clients contact (domain-fronted
// in reality).
func (d *Deployment) BrokerAddr() string { return d.brokerLn.Addr().String() }

// SetLoad adjusts the pool to a new load scenario at runtime. The
// utilization applies to every current and future proxy at once; a
// proxy's lifetime is drawn when it spawns, so the new lifetime reaches
// only proxies spawned after the call.
func (d *Deployment) SetLoad(utilization float64, lifetime time.Duration) {
	d.utilization = utilization
	d.cfg.ProxyLifetime = lifetime
	proxies := append([]*proxy(nil), d.proxies...)
	for _, p := range proxies {
		p.host.Egress().Reload(d.cfg.ProxyUplink, utilization)
		p.host.Ingress().Reload(d.cfg.ProxyUplink, utilization)
	}
}

// spawnProxy brings one volunteer online and schedules its death.
func (d *Deployment) spawnProxy() error {
	d.nextID++
	id := d.nextID
	cfg := d.cfg
	lifetime := time.Duration(-1)
	if cfg.ProxyLifetime > 0 {
		lifetime = time.Duration(d.rng.ExpFloat64() * float64(cfg.ProxyLifetime))
		if lifetime < 2*time.Second {
			lifetime = 2 * time.Second
		}
	}

	host, err := d.net.AddHost(netem.HostConfig{
		Name:        fmt.Sprintf("snowflake-proxy-%d", id),
		Location:    proxyLocation(id),
		UplinkBps:   cfg.ProxyUplink,
		DownlinkBps: cfg.ProxyUplink,
		Utilization: d.utilization,
	})
	if err != nil {
		return err
	}
	ln, err := host.Listen(7000)
	if err != nil {
		return err
	}
	p := &proxy{dep: d, host: host, ln: ln, addr: ln.Addr().String()}
	d.proxies = append(d.proxies, p)
	ln.Serve(p.serveFlow)
	if lifetime > 0 {
		d.net.Clock().EventAt(d.net.Now()+lifetime, func() {
			p.kill()
			// A replacement volunteer appears after a gap.
			d.net.Clock().EventAt(d.net.Now()+time.Duration(2+id%3)*time.Second, func() { d.spawnProxy() })
		})
	}
	return nil
}

// proxyLocation scatters volunteers over the model's cities.
func proxyLocation(id int) geo.Location {
	return geo.All[id%len(geo.All)]
}

// serveFlow splices one accepted flow to the bridge address its hello
// announces, a chain of clock events: the hello's reads, the dial.
func (p *proxy) serveFlow(c *netem.Conn) {
	hello := func(bridgeAddr []byte, err error) {
		if err != nil {
			c.Close()
			return
		}
		dialed := func(down *netem.Conn, err error) {
			if err != nil {
				c.Close()
				return
			}
			p.conns = append(p.conns, c, down)
			pt.Splice(p.host.Network().Clock(), c, down)
		}
		if down, err, done := p.host.DialEvent(string(bridgeAddr), dialed); done {
			dialed(down, err)
		}
	}
	if bridgeAddr, err, done := pt.ReadPrefixed(c, 2, hello); done {
		hello(bridgeAddr, err)
	}
}

// kill takes the volunteer offline, aborting all flows mid-transfer.
func (p *proxy) kill() {
	if p.dead {
		return
	}
	p.dead = true
	conns := p.conns
	p.conns = nil

	d := p.dep
	for i, q := range d.proxies {
		if q == p {
			d.proxies = append(d.proxies[:i], d.proxies[i+1:]...)
			break
		}
	}

	p.ln.Close()
	for _, c := range conns {
		c.Abort()
	}
}

// serveRendezvous answers one rendezvous request, a byte, with a proxy
// address matchDelay after it arrives, and closes the conn.
func (d *Deployment) serveRendezvous(c *netem.Conn) {
	var in *pt.FrameConn
	in = pt.NewFrameConn(cutRequest, func([]byte) {
		// Matching takes time; under load the queue is longer.
		d.net.Clock().EventAt(d.net.Now()+matchDelay, func() {
			var addr string
			if len(d.proxies) > 0 {
				addr = d.proxies[d.rng.Intn(len(d.proxies))].addr
			}
			in.Send(pt.AppendPrefix16(nil, nil, []byte(addr)))
			in.Stop()
		})
	}, func() { c.Close() })
	in.Attach(c)
	in.Await()
}

// cutRequest cuts a rendezvous request (a pt.FrameCut).
func cutRequest(b []byte) (body, end int, err error) { return 0, min(len(b), 1), nil }

// hello is a client's hello, a pt.Prefix16 frame that names the bridge
// to its proxy (the broker answers in the same frame).
func hello(bridgeAddr string) []byte { return pt.AppendPrefix16(nil, nil, []byte(bridgeAddr)) }

// rendezvous is a client's rendezvous request.
var rendezvous = []byte{0x01}

// Dialer is the snowflake client.
type Dialer struct {
	host       *netem.Host
	brokerAddr string
	bridgeAddr string
}

// NewDialer returns a snowflake client. bridgeAddr names the snowflake
// bridge (the PT server that splices to the guard in the prologue).
func NewDialer(host *netem.Host, brokerAddr, bridgeAddr string) *Dialer {
	return &Dialer{host: host, brokerAddr: brokerAddr, bridgeAddr: bridgeAddr}
}

// DialEvent implements pt.Dialer: rendezvous, connect to the volunteer,
// and announce the bridge.
func (d *Dialer) DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	x := &dial{d: d, target: target}
	return x.Play(x, done)
}

// dial is one dial under way: the broker is asked for a proxy, and its
// conn closed once the answer is in, then the proxy gets the hello and
// the target prologue, its conn closed if a write fails.
type dial struct {
	pt.Chain
	d      *Dialer
	target string
	broker *netem.Conn
	proxy  []byte // the broker's answer
}

func (x *dial) Next() {
	switch c, d := &x.Chain, x.d; {
	case c.At == 0:
		c.Dial(d.host, d.brokerAddr)
	case c.At == 1 && c.Err != nil:
		c.End(nil, fmt.Errorf("snowflake: broker unreachable: %w", c.Err))
	case c.At == 1:
		x.broker = c.Raw
		c.Write(x.broker, rendezvous)
	case c.At == 2 && c.Err != nil:
		c.End(x.broker, c.Err)
	case c.At == 2:
		x.readAnswer()
	case c.At == 3:
		switch x.broker.Close(); {
		case c.Err != nil:
			c.End(nil, fmt.Errorf("snowflake: rendezvous failed: %w", c.Err))
		case len(x.proxy) == 0:
			c.End(nil, errors.New("snowflake: no volunteer proxies available"))
		default:
			c.Dial(d.host, string(x.proxy))
		}
	case c.At == 4 && c.Err != nil:
		c.End(nil, fmt.Errorf("snowflake: volunteer gone: %w", c.Err))
	case c.At == 4:
		c.Write(c.Raw, hello(d.bridgeAddr))
	case c.At == 5 && c.Err == nil:
		c.WriteTarget(c.Raw, x.target)
	default: // the hello's or the prologue's write has ended
		c.End(c.Raw, c.Err)
	}
}

// readAnswer reads the broker's answer, a pt.Prefix16 frame naming a
// proxy, into proxy.
func (x *dial) readAnswer() {
	c := &x.Chain
	proxy, err, done := pt.ReadPrefixed(x.broker, 2, func(proxy []byte, err error) { x.proxy = proxy; c.Then(nil, err) })
	x.proxy = proxy
	c.Wait(nil, err, done)
}

// StartBridge runs the snowflake bridge (PT server) on host:port.
func StartBridge(host *netem.Host, port int, handle pt.StreamHandler) (pt.Server, error) {
	return pt.ListenAndServe(host, port, pt.Handshake{}, 0, handle)
}
