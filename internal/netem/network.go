package netem

import (
	"fmt"
	"time"

	"ptperf/internal/geo"
)

// defaultLinkBps is the link capacity assumed when a HostConfig leaves it
// zero: 100 MB/s, i.e. effectively unconstrained compared to relays.
const defaultLinkBps = 100 << 20

// Network is the virtual internet: a set of hosts plus the shared clock.
type Network struct {
	clock *Clock
	seed  int64

	hosts map[string]*Host

	connSeq int64
	// policy is the installed middlebox policy, nil for none:
	// installation happens during world construction, lookups on every
	// dial and segment.
	policy Policy
	acct   Acct
}

// Option configures a Network.
type Option func(*options)

type options struct {
	seed int64
}

// WithSeed sets the base RNG seed for jitter/loss draws.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// New creates an empty network. The calling goroutine is registered as
// the network's driver; see Clock.Go for spawning further simulation
// goroutines.
func New(opts ...Option) *Network {
	o := options{seed: 1}
	for _, f := range opts {
		f(&o)
	}
	return &Network{
		clock: NewClock(),
		seed:  o.seed,
		hosts: make(map[string]*Host),
	}
}

// Clock returns the shared virtual clock.
func (n *Network) Clock() *Clock { return n.clock }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.clock.Now() }

// Since returns the virtual time elapsed since a mark from Now.
func (n *Network) Since(mark time.Duration) time.Duration { return n.clock.Now() - mark }

// VirtualDeadline converts a virtual timeout into the time.Time
// encoding (relative to Epoch) usable with net.Conn deadlines.
func (n *Network) VirtualDeadline(v time.Duration) time.Time {
	return n.clock.VirtualDeadline(v)
}

// Go spawns fn as a simulation goroutine on this network's scheduler.
func (n *Network) Go(fn func()) { n.clock.Go(fn) }

// AddHost attaches a host to the network.
func (n *Network) AddHost(cfg HostConfig) (*Host, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("netem: host needs a name")
	}
	up, down := cfg.UplinkBps, cfg.DownlinkBps
	if up <= 0 {
		up = defaultLinkBps
	}
	if down <= 0 {
		down = defaultLinkBps
	}
	h := &Host{
		net:       n,
		name:      cfg.Name,
		loc:       cfg.Location,
		medium:    cfg.Medium,
		egress:    NewBucket(up, cfg.Utilization),
		ingress:   NewBucket(down, cfg.Utilization),
		listeners: make(map[int]*Listener),
	}
	if _, dup := n.hosts[cfg.Name]; dup {
		return nil, fmt.Errorf("netem: duplicate host %q", cfg.Name)
	}
	n.hosts[cfg.Name] = h
	return h, nil
}

// MustAddHost is AddHost that panics on configuration errors; topology
// construction is programmer-controlled so errors are bugs.
func (n *Network) MustAddHost(cfg HostConfig) *Host {
	h, err := n.AddHost(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Host looks up a host by name, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// AbortHostConns aborts every open conn touching the named host; fault
// injection uses it as the blast radius of a crash or link cut.
func (n *Network) AbortHostConns(host string) int {
	return n.acct.AbortHostConns(host)
}

func (n *Network) nextSeed() int64 {
	n.connSeq += 2
	return n.seed*1e9 + n.connSeq
}

// shapes computes the per-direction shaping for a conn between two hosts:
// propagation is half the city-pair RTT; each endpoint's medium profile
// contributes latency, jitter and loss; loss events are charged one RTT.
func (n *Network) shapes(a, b *Host) (aOut, bOut shape) {
	rtt := geo.RTT(a.loc, b.loc)
	pa := geo.MediumProfile(a.medium)
	pb := geo.MediumProfile(b.medium)
	owd := rtt/2 + pa.ExtraLatency + pb.ExtraLatency
	jitter := pa.Jitter + pb.Jitter
	loss := pa.Loss + pb.Loss
	pen := rtt + 20*time.Millisecond
	aOut = shape{egress: a.egress, ingress: b.ingress, delay: owd, jitter: jitter, loss: loss, lossPen: pen}
	bOut = shape{egress: b.egress, ingress: a.ingress, delay: owd, jitter: jitter, loss: loss, lossPen: pen}
	return aOut, bOut
}
