package censor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Match selects flows by endpoint. A flow matches when the censor's
// vantage (Via) covers one of its ends and the far end hits the
// Hosts/Port pattern.
type Match struct {
	// Via is the vantage endpoint's host glob — the access link the
	// censor sits on, typically the measured client. "" or "*" puts
	// the censor on every path of the network.
	Via string
	// Hosts are far-endpoint host globs ("obfs4-bridge-*"); empty
	// matches any far endpoint. Only a trailing "*" wildcard is
	// supported.
	Hosts []string
	// Port restricts the far endpoint's port (0 = any).
	Port int
}

// globMatch matches s against a pattern where "*" matches any (possibly
// empty) run of characters; "" and "*" match everything.
func globMatch(pattern, s string) bool {
	if pattern == "" || pattern == "*" {
		return true
	}
	star := strings.IndexByte(pattern, '*')
	if star < 0 {
		return pattern == s
	}
	lastStar := strings.LastIndexByte(pattern, '*')
	first, last := pattern[:star], pattern[lastStar+1:]
	if len(s) < len(first)+len(last) ||
		!strings.HasPrefix(s, first) || !strings.HasSuffix(s, last) {
		return false
	}
	s = s[len(first) : len(s)-len(last)]
	// The parts between the first and the last star must follow in order.
	var part string
	for mid := pattern[star : lastStar+1]; mid != ""; {
		part, mid, _ = strings.Cut(mid, "*")
		j := strings.Index(s, part)
		if j < 0 {
			return false
		}
		s = s[j+len(part):]
	}
	return true
}

// splitHostPort splits "host:port" leniently; port is -1 when absent.
// It reads the port's digits back from the end, not the whole endpoint.
func splitHostPort(ep string) (string, int) {
	port, unit := 0, 1
	for i := len(ep) - 1; i >= 0; i-- {
		switch c := ep[i]; {
		case c == ':':
			return ep[:i], port
		case c < '0' || c > '9':
			return ep, -1
		}
		port += int(ep[i]-'0') * unit
		unit *= 10
	}
	return ep, -1
}

// farMatch checks the far endpoint against Hosts and Port.
func (m Match) farMatch(host string, port int) bool {
	if m.Port != 0 && port != m.Port {
		return false
	}
	if len(m.Hosts) == 0 {
		return true
	}
	for _, pat := range m.Hosts {
		if globMatch(pat, host) {
			return true
		}
	}
	return false
}

// Hit reports whether a flow from src to dst (both "host:port", or bare
// host names) crosses this match.
func (m Match) Hit(src, dst string) bool {
	sh, sp := splitHostPort(src)
	dh, dp := splitHostPort(dst)
	if m.Via == "" || m.Via == "*" {
		return m.farMatch(dh, dp) || m.farMatch(sh, sp)
	}
	if globMatch(m.Via, sh) {
		return m.farMatch(dh, dp)
	}
	if globMatch(m.Via, dh) {
		return m.farMatch(sh, sp)
	}
	return false
}

// Rule is one programmable impairment applied to matched flows. The
// zero value of every knob means "off", so a rule states only the
// interference it adds.
type Rule struct {
	// Name labels the rule in reports.
	Name string
	// Match selects the flows the rule applies to.
	Match Match
	// RateBps throttles matched flows through one shared bottleneck
	// of this capacity (bytes per virtual second, before the world's
	// byte scaling). All matched flows contend for it.
	RateBps float64
	// ExtraDelay is fixed added one-way latency per segment.
	ExtraDelay time.Duration
	// Jitter is the max uniform extra latency drawn per segment.
	Jitter time.Duration
	// Loss is an added per-segment loss-event probability; each event
	// charges LossPenalty (≈ a retransmission timeout).
	Loss float64
	// LossPenalty defaults to 250ms when Loss > 0.
	LossPenalty time.Duration
	// ResetProb is a per-segment probability of an injected RST that
	// tears the connection down mid-flight.
	ResetProb float64
	// Block refuses new matched dials while active and cuts existing
	// matched flows at activation.
	Block bool
}

// Event places a rule on the scenario timeline.
type Event struct {
	// At is the activation instant in virtual time.
	At time.Duration
	// Duration bounds the active window; 0 keeps the rule active for
	// the rest of the run.
	Duration time.Duration
	// Rule is the interference applied while active.
	Rule Rule
}

// active reports whether the event's window covers virtual time now.
func (e *Event) active(now time.Duration) bool {
	return now >= e.At && (e.Duration <= 0 || now < e.At+e.Duration)
}

// LoadPhase is one period of endpoint "weather": background utilization
// and mean lifetime of the snowflake volunteer pool. Phases model the
// §5.3 surge timeline, which is interference at the endpoint population
// rather than on the path.
type LoadPhase struct {
	// At is when the phase begins (timeline mode; ignored when the
	// harness steps phases manually).
	At time.Duration
	// Label names the period in reports.
	Label string
	// Util is the background utilization of volunteer proxies.
	Util float64
	// Lifetime is the mean exponential proxy lifetime.
	Lifetime time.Duration
}

// Scenario is a named interference timeline: path events plus endpoint
// load phases.
type Scenario struct {
	// Name is the registry key ("clean", "throttle-surge", ...).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Events are the path-interference timeline.
	Events []Event
	// Phases are the endpoint-pool weather timeline (snowflake).
	Phases []LoadPhase
}

// The registry is the one piece of this package shared by every world
// of the process: tests Register while parallel cells Lookup from their
// own drivers' goroutines.
var (
	//simlint:allow nolocks -- process-wide scenario registry, read by every world's driver
	regMu    sync.Mutex
	registry = map[string]Scenario{}
)

// Register adds (or replaces) a scenario in the registry.
func Register(s Scenario) {
	if s.Name == "" {
		panic("censor: scenario needs a name")
	}
	regMu.Lock()
	registry[s.Name] = s
	regMu.Unlock()
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, error) {
	regMu.Lock()
	s, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return Scenario{}, fmt.Errorf("censor: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Names lists registered scenarios, sorted.
func Names() []string {
	regMu.Lock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	regMu.Unlock()
	sort.Strings(out)
	return out
}

// client is the measured client's host name in testbed worlds; the
// built-in scenarios place the censor on its access link.
const client = "client"

// SurgePhases is the §5.3 snowflake load timeline: background
// utilization of volunteer proxies and their mean lifetime per period.
// Figures 10 and 12 step through it; the snowflake-surge scenario plays
// it on the virtual clock.
// The At instants compress months into a campaign-sized timeline: the
// surge lands early enough that even a small sweep measures mostly
// post-surge weather, as the paper's post-September campaigns did.
var SurgePhases = []LoadPhase{
	{At: 0, Label: "pre-Sept-2022", Util: 0.1, Lifetime: 300 * time.Second},
	{At: 10 * time.Second, Label: "post-Sept-2022", Util: 0.8, Lifetime: 25 * time.Second},
	{At: 60 * time.Second, Label: "Nov-2022", Util: 0.82, Lifetime: 25 * time.Second},
	{At: 110 * time.Second, Label: "Dec-2022", Util: 0.78, Lifetime: 30 * time.Second},
	{At: 160 * time.Second, Label: "Jan-2023", Util: 0.8, Lifetime: 28 * time.Second},
	{At: 210 * time.Second, Label: "Feb-2023", Util: 0.76, Lifetime: 30 * time.Second},
	{At: 260 * time.Second, Label: "Mar-2023", Util: 0.75, Lifetime: 32 * time.Second},
}

func init() {
	Register(Scenario{
		Name:        "clean",
		Description: "no interference: the baseline every scenario is compared against",
	})
	Register(Scenario{
		Name:        "throttle-surge",
		Description: "client access link throttled to ~1.5 MB/s with congestion delay from t=5s on",
		Events: []Event{{
			At: 5 * time.Second,
			Rule: Rule{
				Name:       "access-throttle",
				Match:      Match{Via: client},
				RateBps:    1.5 * (1 << 20),
				ExtraDelay: 30 * time.Millisecond,
			},
		}},
	})
	Register(Scenario{
		Name:        "lossy-path",
		Description: "adverse path: 3% added loss and 25ms jitter on all client traffic",
		Events: []Event{{
			Rule: Rule{
				Name:        "path-loss",
				Match:       Match{Via: client},
				Loss:        0.03,
				LossPenalty: 250 * time.Millisecond,
				Jitter:      25 * time.Millisecond,
			},
		}},
	})
	Register(Scenario{
		Name: "bridge-block",
		Description: "PT bridges, proxy servers, snowflake volunteers and two guards " +
			"blocked from t=10s; fronted/tunneled rendezvous points stay reachable",
		Events: []Event{{
			At: 10 * time.Second,
			Rule: Rule{
				Name: "endpoint-block",
				Match: Match{
					Via: client,
					Hosts: []string{
						"*-bridge-*", "*-server-*", "snowflake-proxy-*",
						"guard-0", "guard-1",
					},
				},
				Block: true,
			},
		}},
	})
	Register(Scenario{
		Name:        "snowflake-surge",
		Description: "the §5.3 volunteer-pool collapse: utilization and churn follow the Sept-2022 surge timeline",
		Phases:      SurgePhases,
	})
	Register(Scenario{
		Name:        "rst-injection",
		Description: "GFW-style tear-down: 2% per-segment injected RSTs on client flows from t=2s",
		Events: []Event{{
			At: 2 * time.Second,
			Rule: Rule{
				Name:      "rst-inject",
				Match:     Match{Via: client},
				ResetProb: 0.02,
			},
		}},
	})
	Register(Scenario{
		Name: "evening-congestion",
		Description: "two rush-hour windows: the access link drops to ~2 MB/s with 40ms jitter, " +
			"clears, then congests again",
		Events: []Event{
			{
				At:       4 * time.Second,
				Duration: 10 * time.Second,
				Rule: Rule{
					Name:    "rush-1",
					Match:   Match{Via: client},
					RateBps: 2 * (1 << 20),
					Jitter:  40 * time.Millisecond,
				},
			},
			{
				At:       24 * time.Second,
				Duration: 14 * time.Second,
				Rule: Rule{
					Name:    "rush-2",
					Match:   Match{Via: client},
					RateBps: 2 * (1 << 20),
					Jitter:  40 * time.Millisecond,
				},
			},
		},
	})
	Register(Scenario{
		Name: "origin-throttle",
		Description: "destination-side interference: every path to the web origin squeezed " +
			"through one ~3 MB/s bottleneck with 20ms added delay",
		Events: []Event{{
			Rule: Rule{
				Name:       "origin-squeeze",
				Match:      Match{Via: "*", Hosts: []string{"origin*"}},
				RateBps:    3 * (1 << 20),
				ExtraDelay: 20 * time.Millisecond,
			},
		}},
	})
}
