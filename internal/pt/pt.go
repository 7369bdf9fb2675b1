// Package pt defines the pluggable-transport framework of the PTPerf
// reproduction: transport metadata (category, integration set,
// capabilities), the Dialer/Server contract every transport implements,
// and the plumbing of both transport shapes. Tunnelling transports
// stand on Stream (the virtual byte-stream endpoint), Sessions (the
// keyed session table with staleness expiry) and netem's
// Listener.Serve (the accept loop); wrapping transports on Handshake
// (the declared flights of each side and the one engine that plays
// them), RecordConn (the record layer over a per-transport codec),
// WrapTransport (the server and dialer constructor) and Splice (the
// forwarding loop).
//
// The twelve transports of the paper live in subpackages; each implements
// the same obfuscation idea and — crucially for performance fidelity —
// the same communication-primitive constraint the paper attributes its
// behaviour to (DNS response caps, IM rate limits, HTTP polling, proxy
// churn, automaton pacing, …).
package pt

import (
	"fmt"

	"ptperf/internal/netem"
)

// Category is the paper's Section 2 taxonomy.
type Category int

// Transport categories.
const (
	// ProxyLayer transports add a proxy layer before Tor (meek,
	// psiphon, conjure, snowflake).
	ProxyLayer Category = iota
	// Tunneling transports encapsulate traffic in another application
	// protocol (dnstt, camoufler, webtunnel).
	Tunneling
	// Mimicry transports disguise traffic as another protocol (cloak,
	// stegotorus, marionette).
	Mimicry
	// FullyEncrypted transports present a uniformly random byte stream
	// (obfs4, shadowsocks).
	FullyEncrypted
)

func (c Category) String() string {
	switch c {
	case ProxyLayer:
		return "proxy-layer"
	case Tunneling:
		return "tunneling"
	case Mimicry:
		return "mimicry"
	case FullyEncrypted:
		return "fully-encrypted"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Set is the paper's Section 4.1 integration taxonomy.
type Set int

// Integration sets.
const (
	// Set1 transports' servers double as the Tor guard (obfs4, meek,
	// conjure, webtunnel, dnstt — dnstt with an extra DoH hop).
	Set1 Set = 1
	// Set2 transports' servers forward to a separate guard chosen by
	// the client (shadowsocks, snowflake, camoufler, stegotorus,
	// psiphon).
	Set2 Set = 2
	// Set3 transports carry application traffic to a PT server that
	// runs the Tor client itself (marionette, cloak).
	Set3 Set = 3
)

// Info is static transport metadata.
type Info struct {
	// Name is the transport's lowercase name as used in the paper.
	Name string
	// Category is the Section 2 class.
	Category Category
	// Set is the Section 4.1 integration set.
	Set Set
	// ParallelStreams reports whether the transport supports several
	// concurrent streams (camoufler does not, which is why the paper
	// could not run selenium over it).
	ParallelStreams bool
	// Hops is the client→website hop count the paper states (3 or 4;
	// dnstt counts 4 due to the DoH resolver).
	Hops int
}

// Dialer opens obfuscated streams to a PT server. The target string is
// delivered to the server's StreamHandler: integration set 2 uses it to
// name the guard to splice to, set 3 the final destination; set 1
// ignores it.
type Dialer interface {
	// Dial opens one stream carrying target to the server.
	Dial(target string) (netem.Stream, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(target string) (netem.Stream, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(target string) (netem.Stream, error) { return f(target) }

// StreamHandler consumes one unwrapped stream on the server side. It
// owns conn and must close it. A server calls it from a clock event, so
// it must not park: it uses the event forms, and spawns work that parks
// (Clock.Go).
type StreamHandler func(target string, conn netem.Stream)

// Server is a running PT server.
type Server interface {
	// Addr returns the server's contact address "host:port".
	Addr() string
}

// Infos lists the twelve evaluated transports with the paper's metadata.
var Infos = []Info{
	{Name: "obfs4", Category: FullyEncrypted, Set: Set1, ParallelStreams: true, Hops: 3},
	{Name: "meek", Category: ProxyLayer, Set: Set1, ParallelStreams: true, Hops: 3},
	{Name: "conjure", Category: ProxyLayer, Set: Set1, ParallelStreams: true, Hops: 3},
	{Name: "webtunnel", Category: Tunneling, Set: Set1, ParallelStreams: true, Hops: 3},
	{Name: "dnstt", Category: Tunneling, Set: Set1, ParallelStreams: true, Hops: 4},
	{Name: "snowflake", Category: ProxyLayer, Set: Set2, ParallelStreams: true, Hops: 4},
	{Name: "psiphon", Category: ProxyLayer, Set: Set2, ParallelStreams: true, Hops: 4},
	{Name: "shadowsocks", Category: FullyEncrypted, Set: Set2, ParallelStreams: true, Hops: 4},
	{Name: "stegotorus", Category: Mimicry, Set: Set2, ParallelStreams: true, Hops: 4},
	{Name: "camoufler", Category: Tunneling, Set: Set2, ParallelStreams: false, Hops: 4},
	{Name: "cloak", Category: Mimicry, Set: Set3, ParallelStreams: true, Hops: 4},
	{Name: "marionette", Category: Mimicry, Set: Set3, ParallelStreams: true, Hops: 4},
}

// InfoFor returns the metadata for a transport name.
func InfoFor(name string) (Info, bool) {
	for _, i := range Infos {
		if i.Name == name {
			return i, true
		}
	}
	return Info{}, false
}

// Names returns the transport names in evaluation order.
func Names() []string {
	out := make([]string, len(Infos))
	for i, info := range Infos {
		out[i] = info.Name
	}
	return out
}

// ByCategory groups transport names by category.
func ByCategory() map[Category][]string {
	m := make(map[Category][]string)
	for _, i := range Infos {
		m[i.Category] = append(m[i.Category], i.Name)
	}
	return m
}
