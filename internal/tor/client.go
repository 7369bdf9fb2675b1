package tor

import (
	"errors"
	"math/rand"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// Errors surfaced by the client.
var (
	// ErrCircuitClosed is returned for operations on a dead circuit.
	ErrCircuitClosed = errors.New("tor: circuit closed")
	// ErrBuildTimeout is returned when circuit construction stalls.
	ErrBuildTimeout = errors.New("tor: circuit build timeout")
	// ErrStreamRefused is returned when the exit cannot reach the target.
	ErrStreamRefused = errors.New("tor: stream refused by exit")
)

// RetryPolicy bounds the client's recovery machinery. The zero value
// reproduces the historical hard-coded behavior byte-for-byte on
// fault-free seeds: three circuit-build attempts, one stream re-attach,
// and no backoff sleeps (and, with BackoffBase zero, no RNG draws).
type RetryPolicy struct {
	// MaxStreamRetries is how many times a failed stream is re-attached
	// to a fresh circuit. 0 means the default (1); negative disables
	// re-attach entirely.
	MaxStreamRetries int
	// MaxBuildRetries is how many extra circuit-build attempts follow a
	// failed one. 0 means the default (2, i.e. three attempts total);
	// negative disables retries.
	MaxBuildRetries int
	// BackoffBase, when positive, sleeps BackoffBase·2^attempt plus a
	// seeded uniform jitter in [0, BackoffBase) between build attempts —
	// the modeled circuit-build-timeout backoff. Zero sleeps nothing and
	// draws nothing.
	BackoffBase time.Duration
}

func (p RetryPolicy) streamRetries() int {
	switch {
	case p.MaxStreamRetries < 0:
		return 0
	case p.MaxStreamRetries == 0:
		return 1
	}
	return p.MaxStreamRetries
}

func (p RetryPolicy) buildRetries() int {
	switch {
	case p.MaxBuildRetries < 0:
		return 0
	case p.MaxBuildRetries == 0:
		return 2
	}
	return p.MaxBuildRetries
}

// RecoveryStats are one client's cumulative recovery counters; the
// churn experiment and the fuzzer's cross-checks read them. ReAttaches
// can never exceed StreamFailures: every re-attach is a response to an
// observed stream failure.
type RecoveryStats struct {
	// Rebuilds counts circuit-build attempts made after a failed one.
	Rebuilds int64
	// BuildTimeouts counts builds that hit the circuit-build timeout.
	BuildTimeouts int64
	// StreamFailures counts stream opens that failed on a circuit.
	StreamFailures int64
	// ReAttaches counts streams re-attached to a fresh circuit.
	ReAttaches int64
	// Abandoned counts streams given up after exhausting retries (or
	// failing to get a replacement circuit).
	Abandoned int64
	// GuardProbations counts guard-failure probation sentences.
	GuardProbations int64
}

// DefaultGuardProbation is how long a failed guard sits out of path
// selection before it is eligible again (doubling per consecutive
// strike, capped at 64×).
const DefaultGuardProbation = 10 * time.Minute

// ClientConfig configures a Tor client.
type ClientConfig struct {
	// Host is the machine the client runs on.
	Host *netem.Host
	// Directory provides the consensus for path selection.
	Directory *Directory
	// DialFirstHop opens the client's connection to the first hop, the
	// guard's address its target. Nil dials the guard's ORPort directly,
	// as vanilla Tor does; pluggable transports substitute their
	// obfuscated channel here — this is the paper's PT client plug-in
	// point.
	DialFirstHop pt.Dialer
	// Guard pins the first hop (guard persistence, fixed-circuit
	// experiments, PT bridges). Nil selects one from the consensus and
	// keeps it for the client's lifetime.
	Guard *Descriptor
	// Middle and Exit pin the rest of the path when non-nil (§5.2's
	// LeaveStreamsUnattached+carml equivalent).
	Middle, Exit *Descriptor
	// Seed makes path selection and handshakes deterministic.
	Seed int64
	// BuildTimeout bounds circuit construction in virtual time; zero
	// means 60 virtual seconds.
	BuildTimeout time.Duration
	// Retry bounds build retries, stream re-attach and backoff; the
	// zero value preserves the historical defaults.
	Retry RetryPolicy
}

// guardProbation is one guard's decaying failure memory.
type guardProbation struct {
	// until is the virtual instant the sentence expires.
	until time.Duration
	// strikes counts recorded failures; the sentence doubles per strike.
	strikes int
}

// Client is a Tor client: it builds circuits and opens streams.
type Client struct {
	cfg   ClientConfig
	clock *netem.Clock

	rng *rand.Rand

	// retryRng feeds backoff jitter only. It is separate from rng so
	// enabling backoff cannot perturb path selection, and vice versa —
	// fault-free seeds stay byte-identical under the default policy.
	retryRng *rand.Rand

	rec RecoveryStats

	guard     *Descriptor
	probation map[string]*guardProbation
	circ      *circuit
	idleSends []*asyncSend // finished sendRelayAsync cells, for reuse
}

// NewClient creates a client. It does not build a circuit until the
// first Dial (or an explicit Preheat).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Host == nil {
		return nil, errors.New("tor: client needs a host")
	}
	if cfg.Directory == nil && (cfg.Guard == nil || cfg.Middle == nil || cfg.Exit == nil) {
		return nil, errors.New("tor: client needs a directory or a fully pinned path")
	}
	if cfg.BuildTimeout <= 0 {
		cfg.BuildTimeout = 60 * time.Second
	}
	if cfg.DialFirstHop == nil {
		cfg.DialFirstHop = directHop{cfg.Host}
	}
	c := &Client{
		cfg:       cfg,
		clock:     cfg.Host.Network().Clock(),
		rng:       sim.NewRand(cfg.Seed*6364136223846793005 + 1442695040888963407),
		retryRng:  sim.NewRand(cfg.Seed*2862933555777941757 + 3037000493),
		probation: make(map[string]*guardProbation),
		guard:     cfg.Guard,
	}
	return c, nil
}

// directHop is vanilla Tor's first hop: a dial of the guard's ORPort.
type directHop struct{ host *netem.Host }

func (h directHop) DialEvent(addr string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	conn, err, ok := h.host.DialEvent(addr, func(conn *netem.Conn, err error) { done(conn, err) })
	return conn, err, ok
}

// Recovery returns the client's cumulative recovery counters.
func (c *Client) Recovery() RecoveryStats { return c.rec }

// Retry returns the retry policy the client was built with.
func (c *Client) Retry() RetryPolicy { return c.cfg.Retry }

// Guard returns the client's persistent guard, selecting one if needed.
func (c *Client) Guard() *Descriptor {
	if c.guard == nil {
		now := c.clock.Now()
		cands := c.cfg.Directory.WithFlag(FlagGuard)
		var skip []*Descriptor
		for _, g := range cands {
			if p := c.probation[g.Name]; p != nil && now < p.until {
				skip = append(skip, g)
			}
		}
		c.guard = pickWeighted(c.rng, cands, skip...)
		if c.guard == nil {
			// Every guard is on probation; retry across the full list like
			// a client whose guard context expired.
			c.guard = pickWeighted(c.rng, cands)
		}
	}
	return c.guard
}

// guardFailed records a first-hop dial failure. An unpinned client
// abandons the unreachable guard and fails over to a different one on
// the next build attempt — the observable response to a censor blocking
// the guard's address (a pinned bridge has nowhere to fail over to).
// Failed guards are not marked bad forever: they serve a probation that
// doubles per consecutive strike (capped at 64× the base) and then
// expires, so a guard that merely flapped comes back into selection.
func (c *Client) guardFailed(g *Descriptor) {
	if c.cfg.Guard != nil || c.cfg.Directory == nil || g == nil {
		return
	}
	now := c.clock.Now()
	if c.guard != nil && c.guard.Name == g.Name {
		c.guard = nil
	}
	p := c.probation[g.Name]
	if p == nil {
		p = &guardProbation{}
		c.probation[g.Name] = p
	}
	if p.strikes < 7 {
		p.strikes++
	}
	p.until = now + DefaultGuardProbation<<(p.strikes-1)
	c.rec.GuardProbations++
}

// NewCircuit discards the current circuit so the next Dial builds a fresh
// one (the paper accesses each website over a fresh circuit in §5.2, and
// MaxCircuitDirtiness-style reuse otherwise).
func (c *Client) NewCircuit() {
	circ := c.circ
	c.circ = nil
	if circ != nil {
		circ.close(nil)
	}
}

// Path returns the current circuit's path, or zero Path if none.
func (c *Client) Path() Path {
	if c.circ == nil {
		return Path{}
	}
	return c.circ.path
}

// backoff computes the post-failure build sleep: BackoffBase·2^n plus a
// uniform jitter in [0, BackoffBase), drawn from the dedicated retry
// RNG. With BackoffBase zero nothing is slept and nothing is drawn.
func (c *Client) backoff(n int) time.Duration {
	base := c.cfg.Retry.BackoffBase
	if base <= 0 {
		return 0
	}
	if n > 6 {
		n = 6
	}
	jitter := time.Duration(c.retryRng.Int63n(int64(base)))
	return base<<n + jitter
}
