package snowflake

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// bufReader reads a buffer as a conn whose bytes have all arrived.
type bufReader struct{ *bytes.Buffer }

func (r bufReader) ReadEvent(p []byte, _ func()) (int, error, bool) {
	n, err := r.Read(p)
	return n, err, true
}

// TestStringFrameRoundTrip: a hello reads back, as the proxy reads it,
// as the string it names.
func TestStringFrameRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 60000 {
			return true
		}
		got, err := netem.Await(netem.NewClock(), func(done func([]byte, error)) ([]byte, error, bool) {
			return pt.ReadPrefixed(bufReader{bytes.NewBuffer(hello(s))}, 2, done)
		})
		return err == nil && string(got) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Proxies != DefaultProxies || c.ProxyLifetime != DefaultProxyLifetime ||
		c.ProxyUplink != DefaultProxyUplink {
		t.Fatalf("defaults: %+v", c)
	}
	if c2 := (Config{ProxyLifetime: -1}).withDefaults(); c2.ProxyLifetime != -1 {
		t.Fatal("negative lifetime (no churn) must survive")
	}
}

func testNet(t *testing.T) (*netem.Network, *netem.Host, *netem.Host) {
	t.Helper()
	n := netem.New(netem.WithSeed(31))
	t.Cleanup(n.Clock().Shutdown)
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	infra := n.MustAddHost(netem.HostConfig{Name: "infra", Location: geo.Frankfurt})
	return n, client, infra
}

func TestBrokerAssignsLiveProxy(t *testing.T) {
	n, client, infra := testNet(t)
	dep, err := Deploy(infra, 443, Config{Seed: 1, ProxyLifetime: -1, Proxies: 3})
	if err != nil {
		t.Fatal(err)
	}

	bridgeHost := infra.Network().MustAddHost(netem.HostConfig{Name: "bridge", Location: geo.Frankfurt})
	// The echo parks, so the handler, which the server calls from a
	// clock event, spawns it.
	bridge, err := StartBridge(bridgeHost, 7001, func(target string, conn netem.Stream) {
		n.Go(func() {
			defer conn.Close()
			io.Copy(conn, conn)
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	d := NewDialer(client, dep.BrokerAddr(), bridge.Addr())
	conn, err := netem.Await(n.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return d.DialEvent("guard-x:9001", done)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("through a volunteer")
	n.Go(func() { conn.Write(msg) })
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip corrupted")
	}
}

func TestPoolSurvivesChurn(t *testing.T) {
	_, _, infra := testNet(t)
	dep, err := Deploy(infra, 443, Config{Seed: 2, Proxies: 3, ProxyLifetime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// After several lifetimes replacements must have spawned, and the
	// pool must repeatedly be non-empty (transient empty windows are
	// legitimate when deaths cluster).
	clock := infra.Network().Clock()
	sawProxies := 0
	for i := 0; i < 20; i++ {
		clock.Sleep(time.Second)
		if len(dep.proxies) > 0 {
			sawProxies++
		}
	}
	spawned := dep.nextID
	if spawned <= 3 {
		t.Fatalf("no replacements spawned (nextID=%d)", spawned)
	}
	if sawProxies == 0 {
		t.Fatal("pool never recovered; respawn is broken")
	}
}

func TestSetLoadAdjustsProxies(t *testing.T) {
	_, _, infra := testNet(t)
	dep, err := Deploy(infra, 443, Config{Seed: 3, Proxies: 2, ProxyLifetime: -1})
	if err != nil {
		t.Fatal(err)
	}
	p := dep.proxies[0]
	before := p.host.Egress().Rate()
	dep.SetLoad(0.9, 10*time.Second)
	after := p.host.Egress().Rate()
	if after >= before {
		t.Fatalf("load must cut volunteer rate: %v -> %v", before, after)
	}
	if p.host.Egress().QueueDelay() == 0 {
		t.Fatal("loaded volunteers must queue")
	}
}
