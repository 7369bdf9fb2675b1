package netem

import "time"

// This file is the path-interception hook the censor subsystem plugs
// into (internal/censor). A Policy is a programmable middlebox sitting
// on every link of the network: it can refuse new connections, observe
// conn establishment, and shape, drop or reset individual segments in
// flight. The network consults it synchronously from simulation
// goroutines, so a deterministic policy keeps the whole simulation
// deterministic.

// Flow identifies one direction of a conn to a Policy: the sending and
// receiving endpoints as "host:port" strings.
type Flow struct {
	// Src is the sending endpoint.
	Src string
	// Dst is the receiving endpoint.
	Dst string
	// Memo is the sending conn's slot for what the policy derives from
	// Src and Dst alone, both fixed at dial time; nil for a flow no conn
	// stands behind (a probe, a test).
	Memo *FlowMemo
}

// FlowMemo is one conn direction's per-flow constant of a Policy. The
// conn only stores it; the policy that fills it says what it means.
type FlowMemo struct {
	// Owner is the policy that filled Rules, nil before the flow's
	// first segment; a policy installed later fills it afresh.
	Owner Policy
	// Rules are the owner's rules the flow crosses, in rule order.
	Rules []int
}

// Action is a policy's verdict on one in-flight segment.
type Action int

const (
	// Pass delivers the segment unimpaired.
	Pass Action = iota
	// Impair delivers the segment with Verdict.Extra added latency
	// and/or serialized through Verdict.Shaper (throttling, induced
	// loss modeled as retransmit penalties).
	Impair
	// Reset tears the connection down mid-flight, like an injected
	// RST: the write fails with ErrReset and the peer's reads error.
	Reset
)

// Verdict is the outcome of filtering one segment.
type Verdict struct {
	// Action selects what happens to the segment.
	Action Action
	// Extra is added one-way latency (congestion queueing, loss
	// penalties, jitter) charged on top of the link's own shaping.
	Extra time.Duration
	// Shaper, when non-nil, is an additional shared bottleneck the
	// segment must serialize through (a censor's throttle box).
	// Flows matched by the same rule contend for it.
	Shaper *Bucket
}

// Policy intercepts traffic at the link layer. Implementations must be
// deterministic functions of virtual time and their own seeded state:
// they are called from simulation goroutines in scheduler order.
type Policy interface {
	// FilterDial is consulted before a new connection from src (a host
	// name) to dst ("host:port") is established. A non-nil error
	// refuses the connection; the dialer observes the failure after
	// one round trip, like a censor's injected RST or a black-holed
	// SYN resolving.
	FilterDial(src, dst string) error
	// ConnOpened reports a successfully established connection (the
	// dialer side). Policies use it to track live flows so that a
	// rule activating later can tear existing matched flows down.
	ConnOpened(c *Conn)
	// FilterSegment is consulted for every segment entering the
	// network, with its flow and payload length.
	FilterSegment(f Flow, n int) Verdict
}

// SetPolicy installs (or, with nil, removes) the network's middlebox
// policy. At most one policy is active; internal/censor composes its
// rule set behind a single Policy.
func (n *Network) SetPolicy(p Policy) { n.policy = p }
