package testbed

import (
	"fmt"
	"net"
	"slices"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/tor"
)

// FixedCircuitRig reproduces §4.2.1's controlled experiment: one host
// carries both a guard relay and private obfs4/webtunnel bridges that
// feed that same relay, so vanilla Tor and the PTs share an identical
// first hop; middle and exit are pinned per iteration.
type FixedCircuitRig struct {
	world *World
	// Relay is the shared first hop.
	Relay *tor.Relay

	// firstHop is what each PT method's clients dial the shared relay
	// through; vanilla Tor has no entry and dials it directly.
	firstHop map[string]pt.Dialer
	seq      int64
}

// NewFixedCircuitRig builds the shared-first-hop deployment.
func (w *World) NewFixedCircuitRig() (*FixedCircuitRig, error) {
	return w.newSharedHopRig("shared-hop", 1, 999)
}

// guardRelay starts an extra infra host carrying a published guard
// relay — the shared first hop of the paper's fixed-circuit experiments
// (§4.2.1, §5.2), on which private PT bridges can then be started. The
// relay advertises, and budgets its cell scheduler at, share of the
// host's link rate.
func (w *World) guardRelay(name string, share float64, seed int64) (*tor.Relay, error) {
	host := w.newServerHost(name, infraLocation, 0.1)
	return w.startRelay(tor.RelayConfig{
		Name:      host.Name() + "-guard",
		Host:      host,
		Flags:     tor.FlagGuard | tor.FlagFast,
		Bandwidth: host.Egress().Rate() * share,
		Seed:      w.Opts.Seed + seed,
	})
}

// newSharedHopRig starts a guard relay host and bridges obfs4 and
// webtunnel onto it (the fixed-circuit rig and the contention rig differ
// only in how that relay is provisioned).
func (w *World) newSharedHopRig(name string, share float64, seed int64) (*FixedCircuitRig, error) {
	relay, err := w.guardRelay(name, share, seed)
	if err != nil {
		return nil, err
	}
	rig := &FixedCircuitRig{world: w, Relay: relay, firstHop: make(map[string]pt.Dialer)}
	for i, method := range rig.Methods()[1:] {
		s := site{
			host: relay.Host(), port: 4430 + i,
			seed: w.Opts.Seed + 41 + int64(i), dialSeed: w.Opts.Seed + 43,
			sni: "cdn.example",
		}
		if rig.firstHop[method], err = w.bridge(relay, method, s); err != nil {
			return nil, err
		}
	}
	return rig, nil
}

// Methods names the rig's three access methods in report order.
func (rig *FixedCircuitRig) Methods() []string { return []string{"tor", "obfs4", "webtunnel"} }

// Clients builds fresh, fully pinned clients (same guard/middle/exit)
// for the three methods. Passing nil middle/exit leaves Tor's default
// selection in place (the Figure 4 variant).
func (rig *FixedCircuitRig) Clients(middle, exit *tor.Descriptor) (map[string]*tor.Client, error) {
	w := rig.world
	p := pin{rig.Relay.Descriptor(), middle, exit}
	rig.seq += 10
	out := make(map[string]*tor.Client, 3)
	for i, method := range rig.Methods() {
		c, err := w.newTorClient(w.Client, p, rig.firstHop[method], w.clientSeed(800+int64(i)+rig.seq))
		if err != nil {
			return nil, err
		}
		out[method] = c
	}
	return out, nil
}

// PickPair draws a random middle/exit pair from the consensus.
func (rig *FixedCircuitRig) PickPair(i int) (*tor.Descriptor, *tor.Descriptor) {
	middles := rig.world.Dir.Relays()
	exits := rig.world.Dir.WithFlag(tor.FlagExit)
	m := middles[i%len(middles)]
	e := exits[(i/len(middles)+i)%len(exits)]
	if m.Name == e.Name {
		e = exits[(i+1)%len(exits)]
	}
	if m.Name == rig.Relay.Descriptor().Name {
		m = middles[(i+1)%len(middles)]
	}
	return m, e
}

// OverheadRig reproduces §5.2: the same fully pinned circuit accessed
// once via vanilla Tor and once via PT+Tor; the time difference isolates
// the transport's own overhead. The rig follows the paper's setup per
// integration set: inseparable PTs share the first-hop host with the
// guard; separable PTs run client and server in the same location.
type OverheadRig struct {
	// Name is the transport under test.
	Name string

	vanilla *tor.Client
	pt      *Deployment
}

// TorDial accesses targets over the pinned circuit via vanilla Tor.
func (rig *OverheadRig) TorDial(target string) (net.Conn, error) { return rig.vanilla.Dial(target) }

// PTDial accesses the same pinned circuit via the transport.
func (rig *OverheadRig) PTDial(target string) (net.Conn, error) { return rig.pt.Dial(target) }

// OverheadPTs lists the transports Figure 9 covers (meek, conjure and
// snowflake are excluded for the paper's own deployment-control
// reasons).
var OverheadPTs = []string{
	"obfs4", "dnstt", "webtunnel",
	"shadowsocks", "psiphon", "stegotorus", "camoufler",
	"cloak", "marionette",
}

// overheadPorts gives each overhead server its port, 4440 up in this
// order (camoufler's proxy listens on none).
var overheadPorts = []string{"obfs4", "webtunnel", "dnstt", "shadowsocks", "psiphon", "stegotorus", "cloak", "marionette"}

// overheadSite is the site of an overhead rig: the resolver or IM
// provider co-located with the client per §5.2's
// minimal-external-delay setup.
func (w *World) overheadSite(name string, host *netem.Host, seq int64) site {
	seed := w.Opts.Seed + seq*100
	return site{
		host: host, port: 4440 + slices.Index(overheadPorts, name),
		seed: seed, dialSeed: seed + 1,
		auxName: map[string]string{"dnstt": "ovh-resolver", "camoufler": "ovh-im"}[name],
		auxLoc:  w.Opts.ClientLocation, auxUtil: 0.1,
		sni: "cdn.example", account: fmt.Sprintf("ovh-acct-%d", seq),
	}
}

// NewOverheadRig builds the rig for one transport.
func (w *World) NewOverheadRig(name string, seq int64) (*OverheadRig, error) {
	info, err := transportInfo(name)
	if err != nil {
		return nil, err
	}
	lookup := func(nick string) *tor.Descriptor {
		d, ok := w.Dir.Lookup(nick)
		if !ok && err == nil {
			err = fmt.Errorf("testbed: consensus lacks %s", nick)
		}
		return d
	}
	p := pin{lookup("guard-0"), lookup("middle-0"), lookup("exit-0")}
	if err != nil {
		return nil, err
	}
	// The vanilla client and the transport's own Tor client get
	// neighbouring seeds, a pair per integration set.
	vanillaSeed := w.clientSeed(900 + 2*int64(info.Set-pt.Set1) + seq)
	seed := vanillaSeed + 1
	var host *netem.Host
	var relay *tor.Relay
	if info.Set == pt.Set1 {
		// Inseparable: guard relay and PT server share one host.
		if relay, err = w.guardRelay("ovh-"+name, 1, 999); err != nil {
			return nil, err
		}
		host, p.guard = relay.Host(), relay.Descriptor()
	} else {
		// Separable: PT client and server in the client's own location,
		// pinned volunteer circuit.
		host = w.newServerHost("ovh-"+name, w.Opts.ClientLocation, 0.05)
		if info.Set == pt.Set3 {
			seed = w.Opts.Seed*91 + seq
		}
	}
	rig := &OverheadRig{Name: name}
	if rig.pt, err = w.wire(info, w.overheadSite(name, host, seq), relay, p, seed); err != nil {
		return nil, err
	}
	if rig.vanilla, err = w.newTorClient(w.Client, p, nil, vanillaSeed); err != nil {
		return nil, err
	}
	return rig, nil
}
