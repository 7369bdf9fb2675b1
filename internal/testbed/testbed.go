// Package testbed assembles complete measurement worlds: the virtual
// internet, a volunteer relay fleet, the web origin, and per-transport
// deployments wired according to the paper's three integration sets
// (§4.1). The harness package runs the paper's experiments on top of it.
//
// Worlds are shard-safe: a World owns every piece of mutable state it
// touches (network, clock, directory, RNGs, deployments), and this
// package's package-level variables are read-only tables. Independent
// Worlds may therefore be built and driven concurrently from different
// OS goroutines — the unit of parallelism of the internal/sim shard
// executor. The goroutine that calls New becomes the world's scheduler
// driver and must stay the one interacting with it (or hand off via
// the world's own simulation goroutines).
package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/faults"
	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
	"ptperf/internal/tor"
	"ptperf/internal/web"
)

// The world's fixed infrastructure: PT servers and bridges sit in
// infraLocation under bridgeUtilization background load, and a
// volunteer relay's link runs at a rate drawn from [minRelayBandwidth,
// maxRelayBandwidth] bytes per virtual second (before ByteScale).
const (
	infraLocation     = geo.Frankfurt
	bridgeUtilization = 0.08
	minRelayBandwidth = 6 << 20
	maxRelayBandwidth = 14 << 20
)

// Options configures a World.
type Options struct {
	// Seed makes the world deterministic.
	Seed int64
	// ByteScale scales every byte quantity — page and file sizes, link
	// rates, and transport byte caps — preserving durations while
	// letting the campaign move fewer real bytes. 1 is full fidelity.
	ByteScale float64
	// ClientLocation places the measurement client (default Toronto,
	// one of the paper's client cities).
	ClientLocation geo.Location
	// Medium is the client's access medium (§4.7).
	Medium geo.Medium
	// Guards, Middles, Exits size the volunteer relay fleet.
	Guards, Middles, Exits int
	// GuardUtilization is the [min,max] background load on volunteer
	// relays. The gap between this and bridgeUtilization reproduces the
	// paper's "PT bridges beat volunteer guards" finding (§4.2.1).
	GuardUtilization [2]float64
	// TrancoN and CBLN size the website catalogs.
	TrancoN, CBLN int
	// Scenario names a censor scenario from the internal/censor
	// registry ("clean", "throttle-surge", ...). Empty leaves the
	// network unpoliced — identical to the pre-censor worlds.
	Scenario string
	// ScenarioSpec attaches an in-memory scenario directly, bypassing
	// the registry; it takes precedence over Scenario. The
	// simulation-torture suite uses it so randomly generated scenarios
	// never leak into the global registry another world might list.
	ScenarioSpec *censor.Scenario
	// SchedPolicy selects the relay cell scheduler's pick rule for
	// every relay of the world (volunteers, shared-hop guards and PT
	// bridges alike). The zero value is tor.SchedEWMA; the contention
	// experiments build tor.SchedFIFO worlds as the pre-KIST baseline.
	SchedPolicy tor.SchedPolicy
	// FaultSpec attaches a deterministic fault-injection plan (relay
	// crashes, link flaps, directory churn) compiled onto the virtual
	// clock — the benign-failure counterpart of ScenarioSpec. Nil leaves
	// the infrastructure immortal, identical to pre-fault worlds.
	FaultSpec *faults.Plan
	// Retry is the circuit/stream retry policy applied to every Tor
	// client the world builds (measurement clients, PT-server-side Tor
	// and the rigs' pinned clients and competitors alike). The zero
	// value reproduces the historical behavior byte-for-byte; churn
	// worlds raise the budgets and add backoff.
	Retry tor.RetryPolicy
}

// WithDefaults returns the options with every zero field filled in with
// the standard campaign world — the fully determined input New actually
// builds from. The cache layer (internal/obs) digests defaulted options
// so two spellings of the same world share one cache entry.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ByteScale <= 0 {
		o.ByteScale = 0.25
	}
	if o.ClientLocation == 0 && o.Medium == 0 {
		o.ClientLocation = geo.Toronto
	}
	if o.Guards <= 0 {
		o.Guards = 4
	}
	if o.Middles <= 0 {
		o.Middles = 5
	}
	if o.Exits <= 0 {
		o.Exits = 5
	}
	if o.GuardUtilization == [2]float64{} {
		o.GuardUtilization = [2]float64{0.55, 0.8}
	}
	if o.TrancoN <= 0 {
		o.TrancoN = 100
	}
	if o.CBLN <= 0 {
		o.CBLN = 100
	}
	return o
}

// relayLocations follows the real Tor network's EU/NA-heavy placement.
var relayLocations = []geo.Location{
	geo.Frankfurt, geo.Frankfurt, geo.London, geo.NewYork, geo.London,
	geo.Frankfurt, geo.NewYork, geo.Toronto, geo.London, geo.Frankfurt,
}

// World is one fully constructed measurement environment.
type World struct {
	Opts Options
	// Net is the virtual internet.
	Net *netem.Network
	// Dir is the Tor consensus.
	Dir *tor.Directory
	// Origin serves both catalogs and bulk files.
	Origin *web.Origin
	// Tranco and CBL are the two site populations.
	Tranco, CBL *web.Catalog
	// Client is the measurement client machine.
	Client *netem.Host
	// Censor is the attached adversary, nil when Options.Scenario is
	// empty.
	Censor *censor.Censor
	// Faults is the attached fault injector, nil when Options.FaultSpec
	// is nil.
	Faults *faults.Injector

	rng     *rand.Rand
	relays  []*tor.Relay
	deps    map[string]*Deployment
	nextSrv int
}

// New builds a world. The caller owns it and ends it with Close; a
// world that fails to build has been closed already.
func New(opts Options) (_ *World, err error) {
	o := opts.WithDefaults()
	n := netem.New(netem.WithSeed(o.Seed))
	w := &World{
		Opts: o,
		Net:  n,
		Dir:  tor.NewDirectory(),
		rng:  sim.NewRand(o.Seed * 31),
		deps: make(map[string]*Deployment),
	}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	sc := o.ScenarioSpec
	if sc == nil && o.Scenario != "" {
		named, err := censor.Lookup(o.Scenario)
		if err != nil {
			return nil, err
		}
		sc = &named
	}
	if sc != nil {
		// Censor rates are paper-scale figures; they shrink with the
		// world's byte quantities so a throttle that binds at full
		// fidelity still binds in a miniature campaign.
		w.Censor = censor.Attach(n, *sc, o.Seed, o.ByteScale)
	}
	if o.FaultSpec != nil {
		// Events resolve targets at fire time, so attaching before the
		// fleet (and before lazily built deployments) is safe.
		w.Faults = faults.Attach(n, w.Dir, *o.FaultSpec)
	}

	w.Client, err = n.AddHost(netem.HostConfig{
		Name:     "client",
		Location: o.ClientLocation,
		Medium:   o.Medium,
		// A fast residential/VPS link.
		UplinkBps:   100 << 20 * o.ByteScale,
		DownlinkBps: 100 << 20 * o.ByteScale,
	})
	if err != nil {
		return nil, err
	}

	// Volunteer relay fleet.
	mkRelay := func(kind string, i int, flags tor.Flag) error {
		bw := w.uniform(minRelayBandwidth, maxRelayBandwidth) * o.ByteScale
		util := w.uniform(o.GuardUtilization[0], o.GuardUtilization[1])
		host, err := n.AddHost(netem.HostConfig{
			Name:        fmt.Sprintf("%s-%d", kind, i),
			Location:    relayLocations[(i*3+len(kind))%len(relayLocations)],
			UplinkBps:   bw,
			DownlinkBps: bw,
			Utilization: util,
		})
		if err != nil {
			return err
		}
		_, err = w.startRelay(tor.RelayConfig{
			Name:      host.Name(),
			Host:      host,
			Flags:     flags,
			Bandwidth: bw,
			Seed:      o.Seed + int64(i) + int64(len(kind))*1000,
		})
		return err
	}
	for i := 0; i < o.Guards; i++ {
		if err := mkRelay("guard", i, tor.FlagGuard|tor.FlagFast); err != nil {
			return nil, err
		}
	}
	for i := 0; i < o.Middles; i++ {
		if err := mkRelay("middle", i, tor.FlagFast); err != nil {
			return nil, err
		}
	}
	for i := 0; i < o.Exits; i++ {
		if err := mkRelay("exit", i, tor.FlagExit|tor.FlagFast); err != nil {
			return nil, err
		}
	}

	// The web origin ("uncensored Internet").
	originHost, err := n.AddHost(netem.HostConfig{
		Name:        "origin",
		Location:    geo.NewYork,
		UplinkBps:   200 << 20 * o.ByteScale,
		DownlinkBps: 200 << 20 * o.ByteScale,
	})
	if err != nil {
		return nil, err
	}
	w.Tranco = web.GenerateCatalog(web.Tranco, o.TrancoN, o.Seed+100, o.ByteScale)
	w.CBL = web.GenerateCatalog(web.CBL, o.CBLN, o.Seed+200, o.ByteScale)
	w.Origin, err = web.StartOrigin(originHost, 80, w.Tranco, w.CBL)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Close ends the world: the scheduler stops every simulation goroutine
// where it is parked (netem.Clock.Shutdown; each unwinds through its
// deferred calls, closing what it owns), then the conns nothing owned
// are aborted and the relays' queued cells dropped (tor.Relay.DropQueues),
// and last the world's free buffers and queue nodes go to the worlds
// after it (netem.Network.Retire). Afterwards the world's measurements and
// counters can still be read, but nothing in it can run again. Only the
// goroutine that drives the world may call it; a second call does
// nothing.
func (w *World) Close() {
	w.Net.Clock().Shutdown()
	w.Net.Acct().AbortOpenConns()
	for _, r := range w.relays {
		r.DropQueues()
	}
	w.Net.Retire()
}

// ForEachMethod runs fn for each method over world w — up to 16 at a
// time, one at a time when sequential — and returns the results keyed
// by method name. Bulk campaigns run sequentially so simultaneous
// downloads do not contend on the shared relay fleet in a way the
// paper's time-gapped measurements never did. The per-method goroutines
// are simulation goroutines on w's scheduler, so they interleave
// deterministically, and only at virtual-time waits: out and errs need
// no lock. Any failure fails the whole call with every per-method error
// aggregated (errors.Join), in deterministic order: the goroutines
// finish in virtual-time order.
func ForEachMethod[T any](w *World, methods []string, sequential bool, fn func(name string) (T, error)) (map[string]T, error) {
	limit := 16
	if sequential {
		limit = 1
	}
	clock := w.Net.Clock()
	out := make(map[string]T, len(methods))
	var errs []error
	wg := netem.NewWaitGroup(clock)
	sem := netem.NewChan[struct{}](clock, limit)
	for _, name := range methods {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			sem.Send(struct{}{})
			defer sem.Recv()
			v, err := fn(name)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", name, err))
				return
			}
			out[name] = v
		})
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// startRelay is the one place a relay is started: it gives the relay
// the world's consensus and scheduler policy, tracks it and, when a
// fault injector is attached, makes it crashable by name.
func (w *World) startRelay(cfg tor.RelayConfig) (*tor.Relay, error) {
	cfg.Directory = w.Dir
	cfg.SchedPolicy = w.Opts.SchedPolicy
	r, err := tor.StartRelay(cfg)
	if err != nil {
		return nil, err
	}
	w.relays = append(w.relays, r)
	if w.Faults != nil {
		w.Faults.RegisterRelay(r)
	}
	return r, nil
}

// Relays lists every relay started in this world so far, in creation
// order — the volunteer fleet plus any shared-hop guards and PT-side
// relays deployments added later. The order is deterministic (relay
// creation is), which is what lets the metrics layer label per-relay
// series stably. Call from the world's driver or one of its simulation
// goroutines.
func (w *World) Relays() []*tor.Relay {
	return append([]*tor.Relay(nil), w.relays...)
}

// BuiltDeployments lists the deployments built so far, sorted by name —
// never building one. The metrics layer samples per-method recovery
// counters through it without perturbing which worlds build what.
func (w *World) BuiltDeployments() []*Deployment {
	out := make([]*Deployment, 0, len(w.deps))
	for _, d := range w.deps {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FaultStats reports what the fault injector actually did (zero when no
// plan is attached).
func (w *World) FaultStats() faults.Stats {
	if w.Faults == nil {
		return faults.Stats{}
	}
	return w.Faults.Stats()
}

// uniform draws from [lo, hi).
func (w *World) uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + float64(w.rng.Float64()*(hi-lo))
}

// Bytes scales a full-fidelity byte quantity by the world's ByteScale.
func (w *World) Bytes(n int) int {
	v := int(float64(n) * w.Opts.ByteScale)
	if v < 1 {
		v = 1
	}
	return v
}

// newServerHost allocates an infrastructure host (PT server, bridge,
// resolver, ...). The counter makes its name unique in the world, which
// is the only way adding a host can fail.
func (w *World) newServerHost(name string, loc geo.Location, util float64) *netem.Host {
	w.nextSrv++
	bw := 12 << 20 * w.Opts.ByteScale
	return w.Net.MustAddHost(netem.HostConfig{
		Name:        fmt.Sprintf("%s-%d", name, w.nextSrv),
		Location:    loc,
		UplinkBps:   bw,
		DownlinkBps: bw,
		Utilization: util,
	})
}

// clientSeed derives the seed of a measurement-host Tor client.
func (w *World) clientSeed(n int64) int64 { return w.Opts.Seed*1000 + n }

// newTorClient is the one place a Tor client is built — on the
// measurement host or a PT server's, behind a transport's first-hop
// dialer or bare — so the build timeout and Options.Retry reach all of
// them.
func (w *World) newTorClient(host *netem.Host, p pin, dial pt.Dialer, seed int64) (*tor.Client, error) {
	return tor.NewClient(tor.ClientConfig{
		Host:         host,
		Directory:    w.Dir,
		Guard:        p.guard,
		Middle:       p.middle,
		Exit:         p.exit,
		DialFirstHop: dial,
		Seed:         seed,
		BuildTimeout: 120 * time.Second,
		Retry:        w.Opts.Retry,
	})
}

// Dialer adapts a deployment to the fetch.Dialer signature.
type Dialer = func(target string) (net.Conn, error)

// TorDialer is c.Dial as a Dialer.
func TorDialer(c *tor.Client) Dialer {
	return func(target string) (net.Conn, error) { return c.Dial(target) }
}
