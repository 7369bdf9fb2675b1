package snowflake

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
)

func TestStringFrameRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 60000 {
			return true
		}
		var buf bytes.Buffer
		if err := writeString(&buf, s); err != nil {
			return false
		}
		got, err := readString(&buf)
		return err == nil && got == s
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
	conn, err := d.Dial("guard-x:9001")
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
