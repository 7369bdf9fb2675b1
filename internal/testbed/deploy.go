package testbed

import (
	"fmt"
	"net"

	"ptperf/internal/censor"
	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/camoufler"
	"ptperf/internal/pt/cloak"
	"ptperf/internal/pt/conjure"
	"ptperf/internal/pt/dnstt"
	"ptperf/internal/pt/marionette"
	"ptperf/internal/pt/meek"
	"ptperf/internal/pt/obfs4"
	"ptperf/internal/pt/psiphon"
	"ptperf/internal/pt/shadowsocks"
	"ptperf/internal/pt/snowflake"
	"ptperf/internal/pt/stegotorus"
	"ptperf/internal/pt/webtunnel"
	"ptperf/internal/tor"
)

// Deployment is one ready-to-measure access method: vanilla Tor or one
// of the twelve transports, wired per its integration set.
type Deployment struct {
	// Name is "tor" or the transport name.
	Name string
	// Info is the transport metadata (zero Info for vanilla Tor).
	Info pt.Info

	// tor is the one Tor client beside the transport: on the measurement
	// host for vanilla Tor and sets 1–2, on the PT server host for set 3.
	tor *tor.Client
	// dialer is the PT client that application streams (set 3, awaited
	// on clock) or the Tor client's first hop (set 2) go through.
	dialer pt.Dialer
	clock  *netem.Clock
	// pool is snowflake's volunteer pool, for the snowflake deployment.
	pool *snowflake.Deployment
}

// Dial opens an application stream to target through the deployment.
func (d *Deployment) Dial(target string) (net.Conn, error) {
	if d.Info.Set == pt.Set3 {
		return netem.Await(d.clock, func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
			return d.dialer.DialEvent(target, done)
		})
	}
	return d.tor.Dial(target)
}

// FreshCircuit discards circuit state so the next Dial measures a cold
// path (§5.2 accesses each website over a new circuit).
func (d *Deployment) FreshCircuit() { d.tor.NewCircuit() }

// Preheat builds circuits ahead of measurement.
func (d *Deployment) Preheat() error { return d.tor.Preheat() }

// Snowflake returns the snowflake pool controller, if this deployment
// is snowflake.
func (d *Deployment) Snowflake() *snowflake.Deployment { return d.pool }

// Recovery returns the recovery counters of the deployment's Tor client
// — the per-method recovery cost the churn experiment reports.
func (d *Deployment) Recovery() tor.RecoveryStats { return d.tor.Recovery() }

// site is where and how one transport is started. It holds everything
// that differs between a campaign deployment, the overhead rig and the
// shared-hop rig and reaches a report byte, so startTransport never asks
// which of them it serves (DESIGN.md "World assembly" has the table).
type site struct {
	// host and port are where the PT server (or bridge, or proxy)
	// listens.
	host *netem.Host
	port int
	// handle receives the server's unwrapped streams; the integration
	// set's wiring sets it.
	handle pt.StreamHandler
	// seed and dialSeed seed the server and the client dialer. Only
	// obfs4 and marionette read dialSeed; the rest share one Config.
	seed, dialSeed int64
	// auxName, auxLoc and auxUtil name and place the machine between
	// client and server, for the transports that have one: meek's CDN
	// front, conjure's registrar and station, dnstt's DoH resolver,
	// camoufler's IM provider, snowflake's broker.
	auxName string
	auxLoc  geo.Location
	auxUtil float64
	// sni is webtunnel's cover host name, account camoufler's IM
	// account base.
	sni, account string
}

// quantum byte-scales a protocol's per-message payload quantum (DNS
// response cap, IM message cap) like any other byte quantity and returns
// it with a stretch factor of 1 — unless that falls under floor: a
// miniature campaign must not multiply the protocol's message count far
// beyond the real system's. Then the stretch is what the floor
// introduced, and the caller must divide the protocol's message rate by
// it so the modeled throughput, and thus every measured duration, is
// preserved.
func (w *World) quantum(real, floor int) (int, float64) {
	exact := float64(real) * w.Opts.ByteScale
	if q := w.Bytes(real); q >= floor || float64(floor) <= exact {
		return q, 1
	}
	return floor, float64(floor) / exact
}

// startTransport launches the named transport's server side at s, with
// whatever machine sits between client and server, and returns the
// client dialer on the measurement host, and snowflake's volunteer pool
// (nil for every other transport). It is the one place a transport is
// started: deployments and rigs differ only in the site they pass.
func (w *World) startTransport(name string, s site) (pt.Dialer, *snowflake.Deployment, error) {
	addr := fmt.Sprintf("%s:%d", s.host.Name(), s.port)
	aux := func(role string) *netem.Host {
		return w.newServerHost(s.auxName+role, s.auxLoc, s.auxUtil)
	}
	var d pt.Dialer
	var pool *snowflake.Deployment
	var err error
	switch name {
	case "obfs4":
		secret := []byte("obfs4-bridge-secret")
		_, err = obfs4.Transport(obfs4.Config{Secret: secret, Seed: s.seed}).StartServer(s.host, s.port, s.handle)
		d = obfs4.Transport(obfs4.Config{Secret: secret, Seed: s.dialSeed}).NewDialer(w.Client, addr)
	case "webtunnel":
		cfg := webtunnel.Config{SNI: s.sni, Seed: s.seed}
		t := webtunnel.Transport(cfg)
		_, err = t.StartServer(s.host, s.port, s.handle)
		d = t.NewDialer(w.Client, addr)
	case "meek":
		cfg := meek.Config{Seed: s.seed}
		cfg.SessionBudgetMedian = int64(w.Bytes(int(meek.DefaultSessionBudgetMedian)))
		cfg.BridgeRate = meek.DefaultBridgeRate * w.Opts.ByteScale
		bridge, err := meek.StartBridge(s.host, s.port, cfg, s.handle)
		if err != nil {
			return nil, nil, err
		}
		// The CDN front: a large, busy edge.
		front, err := meek.StartFront(aux(""), 443, cfg, bridge.Addr())
		if err != nil {
			return nil, nil, err
		}
		d = meek.NewDialer(w.Client, front.Addr(), cfg)
	case "conjure":
		cfg := conjure.Config{Secret: []byte("conjure-station-secret"), Seed: s.seed}
		bridge, err := conjure.StartBridge(s.host, s.port, cfg, s.handle)
		if err != nil {
			return nil, nil, err
		}
		inf, err := conjure.StartInfra(aux("-registrar"), aux("-station"), 53001, 443, cfg, bridge.Addr())
		if err != nil {
			return nil, nil, err
		}
		d = conjure.NewDialer(w.Client, inf.RegistrarAddr(), inf.PhantomAddr(), cfg)
	case "dnstt":
		cfg := dnstt.Config{Seed: s.seed}
		// Where the response cap is floored the in-flight window
		// shrinks by the same factor, keeping the tunnel's
		// inflight×cap/RTT throughput.
		respCap, stretch := w.quantum(dnstt.DefaultRespCap, 128)
		cfg.RespCap = respCap
		cfg.Inflight = max(1, int(float64(dnstt.DefaultInflight)/stretch+0.5))
		cfg.QueryCap = w.Bytes(dnstt.DefaultQueryCap)
		cfg.BudgetMedian = int64(w.Bytes(dnstt.DefaultBudgetMedian))
		srv, err := dnstt.StartServer(s.host, s.port, cfg, s.handle)
		if err != nil {
			return nil, nil, err
		}
		// The public DoH resolver (e.g. OpenDNS).
		res, err := dnstt.StartResolver(aux(""), 443, cfg, srv.Addr())
		if err != nil {
			return nil, nil, err
		}
		d = dnstt.NewDialer(w.Client, res.Addr(), cfg)
	case "shadowsocks":
		cfg := shadowsocks.Config{PSK: []byte("shadowsocks-psk"), Seed: s.seed}
		t := shadowsocks.Transport(cfg)
		_, err = t.StartServer(s.host, s.port, s.handle)
		d = t.NewDialer(w.Client, addr)
	case "psiphon":
		cfg := psiphon.Config{HostKey: []byte("psiphon-host-key"), Seed: s.seed}
		t := psiphon.Transport(cfg)
		_, err = t.StartServer(s.host, s.port, s.handle)
		d = t.NewDialer(w.Client, addr)
	case "stegotorus":
		cfg := stegotorus.Config{Seed: s.seed}
		_, err = stegotorus.StartServer(s.host, s.port, cfg, s.handle)
		d = stegotorus.NewDialer(w.Client, addr, cfg)
	case "camoufler":
		cfg := camoufler.Config{Seed: s.seed}
		// Floored like dnstt's response cap: larger messages at a
		// proportionally lower API rate keep the modeled throughput
		// while bounding the message count.
		msgCap, stretch := w.quantum(camoufler.DefaultMessageCap, 1024)
		cfg.MessageCap = msgCap
		cfg.RatePerSec = camoufler.DefaultRatePerSec / stretch
		im, err := camoufler.StartIMServer(aux(""), 5222, cfg)
		if err != nil {
			return nil, nil, err
		}
		proxy, err := camoufler.StartProxy(s.host, im.Addr(), s.account, cfg, s.handle)
		if err != nil {
			return nil, nil, err
		}
		d = camoufler.NewDialer(w.Client, im.Addr(), s.account, cfg, proxy)
	case "snowflake":
		bridge, err := snowflake.StartBridge(s.host, s.port, s.handle)
		if err != nil {
			return nil, nil, err
		}
		cfg := snowflake.Config{Seed: s.seed}
		cfg.ProxyUplink = snowflake.DefaultProxyUplink * w.Opts.ByteScale
		if pool, err = snowflake.Deploy(aux(""), 443, cfg); err != nil {
			return nil, nil, err
		}
		if w.Censor != nil {
			// Scenarios with an endpoint-weather timeline (the
			// snowflake-surge collapse) drive the volunteer pool on
			// the virtual clock.
			w.Censor.BindLoad(func(p censor.LoadPhase) {
				pool.SetLoad(p.Util, p.Lifetime)
			})
		}
		d = snowflake.NewDialer(w.Client, pool.BrokerAddr(), bridge.Addr())
	case "cloak":
		cfg := cloak.Config{UID: []byte("cloak-uid"), Seed: s.seed}
		t := cloak.Transport(cfg)
		_, err = t.StartServer(s.host, s.port, s.handle)
		d = t.NewDialer(w.Client, addr)
	case "marionette":
		model := marionette.FTPForScale(w.Opts.ByteScale)
		if _, err = marionette.StartServer(s.host, s.port, model, s.seed, s.handle); err == nil {
			d, err = marionette.NewDialer(w.Client, addr, model, s.dialSeed)
		}
	default:
		err = fmt.Errorf("testbed: unknown transport %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	return d, pool, nil
}
