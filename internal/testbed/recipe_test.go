package testbed

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/camoufler"
	"ptperf/internal/pt/dnstt"
	"ptperf/internal/tor"
)

// fetchPage fetches one page over dial and fails the test unless it
// arrives whole.
func fetchPage(t *testing.T, w *World, dial func(string) (net.Conn, error)) {
	t.Helper()
	c := &fetch.Client{Net: w.Net, Dial: dial, Timeout: 240 * time.Second}
	res := c.Get(w.Origin.Addr(), w.CBL.Sites[1].Path, false)
	if !res.Complete() {
		t.Fatalf("fetch failed: err=%v status=%d got=%d want=%d", res.Err, res.Status, res.BytesGot, res.BytesWanted)
	}
}

// TestRecipeStartsEveryTransport drives startTransport alone, with no
// integration-set wiring around it: the server forwards straight to the
// target, so a page fetched through the returned dialer crossed nothing
// but the transport. Every transport starts at a deployment site and
// every overhead transport at an overhead site.
func TestRecipeStartsEveryTransport(t *testing.T) {
	w := smallWorld(t, 12)
	type row struct {
		kind, name string
		site       func(host string) site
	}
	var rows []row
	for _, name := range pt.Names() {
		rows = append(rows, row{"deployment", name, func(host string) site {
			return w.deploymentSite(name, w.newServerHost(host, infraLocation, bridgeUtilization))
		}})
	}
	for _, name := range OverheadPTs {
		rows = append(rows, row{"overhead", name, func(host string) site {
			return w.overheadSite(name, w.newServerHost(host, w.Opts.ClientLocation, 0.05), 7)
		}})
	}
	for _, r := range rows {
		t.Run(r.kind+"/"+r.name, func(t *testing.T) {
			s := r.site(r.kind + "-" + r.name)
			s.handle = pt.ForwardTo(s.host)
			d, _, err := w.startTransport(r.name, s)
			if err != nil {
				t.Fatal(err)
			}
			fetchPage(t, w, func(target string) (net.Conn, error) {
				return netem.Await(w.Net.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
					return d.DialEvent(target, done)
				})
			})
		})
	}
}

// TestRigsFetch fetches a page over every access method of the three
// rigs, vanilla Tor included.
func TestRigsFetch(t *testing.T) {
	w := smallWorld(t, 13)
	for _, name := range OverheadPTs {
		t.Run("overhead/"+name, func(t *testing.T) {
			rig, err := w.NewOverheadRig(name, int64(len(name))*13)
			if err != nil {
				t.Fatal(err)
			}
			fetchPage(t, w, rig.TorDial)
			fetchPage(t, w, rig.PTDial)
		})
	}
	fixed, err := w.NewFixedCircuitRig()
	if err != nil {
		t.Fatal(err)
	}
	contended, err := w.NewContentionRig(ContentionLevels[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, shared := range []struct {
		kind string
		rig  *FixedCircuitRig
	}{{"fixed", fixed}, {"contention", contended.FixedCircuitRig}} {
		rig := shared.rig
		clients, err := rig.Clients(rig.PickPair(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range rig.Methods() {
			t.Run(shared.kind+"/"+method, func(t *testing.T) {
				fetchPage(t, w, TorDialer(clients[method]))
				if g := clients[method].Path().Guard; g != rig.Relay.Descriptor() {
					t.Fatalf("first hop is %v, want the rig's shared relay", g)
				}
			})
		}
	}
}

// TestEveryTorClientCarriesRetry builds the rigs whose Tor clients used
// to be constructed apart from the deployments' (the overhead rig's
// set-3 server-side Tor, the contention competitors) in a world with a
// retry policy, and checks every client got it.
func TestEveryTorClientCarriesRetry(t *testing.T) {
	want := tor.RetryPolicy{MaxStreamRetries: 3, MaxBuildRetries: 5, BackoffBase: time.Second}
	w, err := New(Options{Seed: 14, ByteScale: 0.1, Guards: 2, Middles: 2, Exits: 2, TrancoN: 4, CBLN: 4, Retry: want})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	clients := map[string]*tor.Client{}
	for _, name := range []string{"cloak", "shadowsocks", "obfs4"} {
		rig, err := w.NewOverheadRig(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		clients["overhead "+name+" vanilla"] = rig.vanilla
		clients["overhead "+name+" transport-side"] = rig.pt.tor
		clients["deployment "+name] = mustDeploy(t, w, name).tor
	}
	rig, err := w.NewContentionRig(ContentionLevels[1])
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rig.competitors {
		clients[fmt.Sprintf("competitor %d", i)] = c
	}
	measured, err := rig.Clients(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for method, c := range measured {
		clients["contention "+method] = c
	}
	if len(clients) != 9+len(rig.competitors)+3 || len(rig.competitors) == 0 {
		t.Fatalf("collected %d clients, %d competitors", len(clients), len(rig.competitors))
	}
	for who, c := range clients {
		if got := c.Retry(); got != want {
			t.Errorf("%s: retry policy %+v, want %+v", who, got, want)
		}
	}
}

// TestStartTransportRejectsUnknownName pins the recipe's error text to
// the one Deployment returns for a name pt does not know.
func TestStartTransportRejectsUnknownName(t *testing.T) {
	w := smallWorld(t, 15)
	_, depErr := w.Deployment("nope")
	_, _, err := w.startTransport("nope", w.deploymentSite("nope", w.Client))
	const want = `testbed: unknown transport "nope"`
	if err == nil || depErr == nil || err.Error() != want || depErr.Error() != want {
		t.Fatalf("startTransport: %v, Deployment: %v, want both %q", err, depErr, want)
	}
}

// TestQuantumFloorsEverySite: a per-message quantum is floored wherever
// a transport is started, the overhead rig included, and the stretch is
// what keeps cap × rate, the modeled throughput, where plain scaling
// would have put it.
func TestQuantumFloorsEverySite(t *testing.T) {
	w := smallWorld(t, 16) // ByteScale 0.1
	for _, tc := range []struct {
		real, floor, want int
		stretch           float64
	}{
		{dnstt.DefaultRespCap, 128, 128, 2.5},          // 51 B scaled: floored
		{camoufler.DefaultMessageCap, 1024, 1024, 2.5}, // 409 B scaled: floored
		{dnstt.DefaultRespCap, 32, 51, 1},              // above its floor: plain Bytes
		{camoufler.DefaultMessageCap * 40, 1024, 16384, 1},
	} {
		got, stretch := w.quantum(tc.real, tc.floor)
		if got != tc.want || math.Abs(stretch-tc.stretch) > 1e-9 {
			t.Errorf("quantum(%d, %d) = %d, %.3f; want %d, %.3f", tc.real, tc.floor, got, stretch, tc.want, tc.stretch)
		}
	}
}
