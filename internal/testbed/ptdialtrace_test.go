package testbed

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/conjure"
	"ptperf/internal/testkit/tracekit"
	"ptperf/internal/tor"
)

// ptDialCase is one transport's dials under the tap: name is the
// method, refuse turns dials to a host whose name starts with it away
// (the n-th such dial and later ones, from 1), and rejected dials
// conjure's registrar with a secret the station does not hold.
type ptDialCase struct {
	name, method string
	refuse       string
	refuseFrom   int
	rejected     bool
}

// ptDialCases are every method's dials, and the failures: a set-1 and a
// set-3 server nothing reaches, fan-outs cut at their second dial, and
// a registration the station refuses.
var ptDialCases = func() []ptDialCase {
	var cs []ptDialCase
	for _, name := range pt.Names() {
		cs = append(cs, ptDialCase{name: name, method: name})
	}
	return append(cs,
		ptDialCase{name: "obfs4-unreachable", method: "obfs4", refuse: "obfs4-bridge", refuseFrom: 1},
		ptDialCase{name: "cloak-unreachable", method: "cloak", refuse: "cloak-server", refuseFrom: 1},
		ptDialCase{name: "dnstt-fanout-cut", method: "dnstt", refuse: "doh-resolver", refuseFrom: 2},
		ptDialCase{name: "stegotorus-fanout-cut", method: "stegotorus", refuse: "stegotorus-server", refuseFrom: 2},
		ptDialCase{name: "conjure-rejected", method: "conjure", rejected: true},
	)
}()

// ptDialTraceDigests pins, per case, a digest of the tapped trace. They
// were taken while every transport's dialer parked in a Dial of its own
// and a Tor client's PT first hop parked with it, and must not move.
var ptDialTraceDigests = map[string]string{
	"obfs4":                 "968f63bc8a91221f",
	"meek":                  "54fdae5044c90b69",
	"conjure":               "5cc13f09b1a94896",
	"webtunnel":             "bdfe568271b9b0f7",
	"dnstt":                 "107087f3bd9fd3a0",
	"snowflake":             "94864d26fa0e0baf",
	"psiphon":               "8e811e2881e5b7eb",
	"shadowsocks":           "cb76eeb065502df0",
	"stegotorus":            "e21a83c64cd5d393",
	"camoufler":             "ae59606d9df8238c",
	"cloak":                 "5c3af4bb685b3c2b",
	"marionette":            "4c95df12d1ac8bff",
	"obfs4-unreachable":     "66a7aba8d3bac1a7",
	"cloak-unreachable":     "3d34f1572a0a2ee2",
	"dnstt-fanout-cut":      "800e27f4e5dcbc95",
	"stegotorus-fanout-cut": "91ee6028e7996d35",
	"conjure-rejected":      "52984b1a15be02f6",
}

// TestPTDialTrace pins every dial, segment and close each transport's
// dialer makes, as the network sees them, with the instants the
// application sees its stream or error: a set-1 or set-2 deployment's
// Tor client builds a circuit through the transport, carries an echoed
// stream over it and builds a second one on the dialer's next dial; a
// set-3 dialer opens two echoed streams itself. The failures are a
// set-1 bridge and a set-3 server that refuse every dial, dnstt's and
// stegotorus' fan-outs refused from their second conn on, and conjure's
// registration refused for its MAC.
func TestPTDialTrace(t *testing.T) {
	for _, tc := range ptDialCases {
		t.Run(tc.name, func(t *testing.T) {
			r := newDialRig(t, tor.RetryPolicy{BackoffBase: time.Second}, tc.method)
			seen := 0
			r.faults.refuse = func(_, dst string) bool {
				if tc.refuse == "" || !strings.HasPrefix(dst, tc.refuse) {
					return false
				}
				seen++
				return seen >= tc.refuseFrom
			}
			switch {
			case tc.rejected:
				d := conjure.NewDialer(r.w.Client, r.addr(t, "conjure-registrar", 53001), r.addr(t, "conjure-station", 443),
					conjure.Config{Secret: []byte("not-the-station's"), Seed: 3})
				_, err := netem.Await(r.w.Net.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
					return d.DialEvent("echo:7", done)
				})
				r.tap.Note("dialed %v", err)
			case r.d.Info.Set == pt.Set3:
				r.session("echo:7")
				r.session("echo:7")
			default:
				r.preheat()
				r.session("echo:7")
				r.d.FreshCircuit()
				r.preheat()
			}
			r.w.Net.Clock().Sleep(2 * time.Minute)
			r.tap.Note("end %+v", r.d.Recovery())
			tracekit.Pin(t, r.tap, ptDialTraceDigests[tc.name])
		})
	}
}

// addr is the address of port on the world's server host whose name is
// prefix and its number.
func (r *dialRig) addr(t *testing.T, prefix string, port int) string {
	for i := 1; i < 100; i++ {
		if name := fmt.Sprintf("%s-%d", prefix, i); r.w.Net.Host(name) != nil {
			return fmt.Sprintf("%s:%d", name, port)
		}
	}
	t.Fatalf("no host %s-N", prefix)
	return ""
}
