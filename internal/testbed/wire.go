package testbed

import (
	"fmt"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/tor"
)

// pin is an optionally pinned circuit: a nil hop leaves that position
// to Tor's own path selection.
type pin struct{ guard, middle, exit *tor.Descriptor }

// bridge starts a set-1 transport at s with its unwrapped streams
// feeding relay's OR protocol directly, and returns what a Tor client
// pinned to relay dials its first hop through: the transport's dialer,
// whose streams name no target, as the bridge reads none.
func (w *World) bridge(relay *tor.Relay, name string, s site) (pt.Dialer, error) {
	s.handle = func(_ string, conn netem.Stream) { relay.ServeConn(conn) }
	dialer, _, err := w.startTransport(name, s)
	if err != nil {
		return nil, err
	}
	return pt.DialerFunc(func(_ string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return dialer.DialEvent("", done)
	}), nil
}

// wire starts a transport at s and wires it per its integration set
// (§4.1). Every set has exactly one Tor client beside the transport; p
// and seed are that client's circuit pin and seed. relay is the guard on
// s.host that a set-1 server feeds; the other sets ignore it.
func (w *World) wire(info pt.Info, s site, relay *tor.Relay, p pin, seed int64) (*Deployment, error) {
	d := &Deployment{Name: info.Name, Info: info}
	var hop pt.Dialer
	var err error
	switch info.Set {
	case pt.Set1:
		// The PT server host also runs a guard relay, and the client's
		// Tor pins that bridge as its guard.
		hop, err = w.bridge(relay, info.Name, s)
		p.guard = relay.Descriptor()
	case pt.Set2:
		// The PT server splices to whichever guard the client's Tor
		// names in the stream prologue.
		s.handle = pt.ForwardTo(s.host)
		d.dialer, d.pool, err = w.startTransport(info.Name, s)
		hop = d.dialer
	case pt.Set3:
		// The PT server host runs the Tor client, which dials each
		// application stream's final destination on the clock.
		if d.tor, err = w.newTorClient(s.host, p, nil, seed); err != nil {
			return nil, err
		}
		s.handle, d.clock = pt.HandleWithDialer(w.Net.Clock(), d.tor), w.Net.Clock()
		d.dialer, d.pool, err = w.startTransport(info.Name, s)
	}
	if err != nil {
		return nil, err
	}
	if d.tor == nil {
		if d.tor, err = w.newTorClient(w.Client, p, hop, seed); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// deploySeeds are the campaign deployments' server and dialer seeds, as
// offsets from Options.Seed.
var deploySeeds = map[string][2]int64{
	"obfs4": {11, 12}, "webtunnel": {13, 13}, "meek": {14, 14}, "conjure": {15, 15},
	"dnstt": {16, 16}, "shadowsocks": {17, 17}, "psiphon": {18, 18}, "stegotorus": {19, 19},
	"camoufler": {20, 20}, "snowflake": {21, 21}, "cloak": {22, 22}, "marionette": {23, 24},
}

// ptServerPort is the conventional PT server port.
const ptServerPort = 443

// deploymentSite is the site of a campaign deployment: the server on
// its own infra host, the machine in between where the real system has
// it.
func (w *World) deploymentSite(name string, host *netem.Host) site {
	s := site{
		host: host, port: ptServerPort,
		seed:     w.Opts.Seed + deploySeeds[name][0],
		dialSeed: w.Opts.Seed + deploySeeds[name][1],
		auxLoc:   infraLocation,
		sni:      "static.example", account: "camoufler",
	}
	switch name {
	case "meek":
		s.auxName, s.auxUtil = "cdn-front", 0.2
	case "conjure":
		s.auxName, s.auxUtil = "conjure", 0.1
	case "dnstt":
		// Near the client's region, moderately busy.
		s.auxName, s.auxLoc, s.auxUtil = "doh-resolver", geo.London, 0.3
	case "camoufler":
		s.auxName, s.auxLoc, s.auxUtil = "im-provider", geo.Frankfurt, 0.25
	case "snowflake":
		s.auxName, s.auxUtil = "snowflake-broker", 0.2
	}
	return s
}

// transportInfo looks a transport up by name.
func transportInfo(name string) (pt.Info, error) {
	info, ok := pt.InfoFor(name)
	if !ok {
		return info, fmt.Errorf("testbed: unknown transport %q", name)
	}
	return info, nil
}

// Deployment returns (building on first use) the deployment for "tor"
// or a transport name.
func (w *World) Deployment(name string) (*Deployment, error) {
	if d, ok := w.deps[name]; ok {
		return d, nil
	}
	d, err := w.build(name)
	if err != nil {
		return nil, err
	}
	w.deps[name] = d
	return d, nil
}

func (w *World) build(name string) (*Deployment, error) {
	if name == "tor" {
		c, err := w.newTorClient(w.Client, pin{}, nil, w.clientSeed(500))
		return &Deployment{Name: "tor", tor: c}, err
	}
	info, err := transportInfo(name)
	if err != nil {
		return nil, err
	}
	n := int64(len(name))
	role, seed := "-server", w.clientSeed(610+n)
	switch info.Set {
	case pt.Set1:
		role, seed = "-bridge", w.clientSeed(600+n)
	case pt.Set3:
		seed = w.Opts.Seed*77 + n
	}
	host := w.newServerHost(name+role, infraLocation, bridgeUtilization)
	var relay *tor.Relay
	if info.Set == pt.Set1 {
		// The bridge's guard is private: reachable, never selected from
		// the consensus.
		relay, err = w.startRelay(tor.RelayConfig{
			Name:        name + "-bridge-guard",
			Host:        host,
			Flags:       tor.FlagGuard | tor.FlagFast,
			Bandwidth:   host.Egress().Rate(),
			Seed:        w.Opts.Seed + 700,
			Unpublished: true,
			Port:        9011,
		})
		if err != nil {
			return nil, err
		}
	}
	return w.wire(info, w.deploymentSite(name, host), relay, pin{}, seed)
}
