package conjure

import (
	"io"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
)

func testNet(t *testing.T) (*netem.Host, *netem.Host, *netem.Host, *netem.Host) {
	t.Helper()
	n := netem.New(netem.WithSeed(33))
	t.Cleanup(n.Clock().Shutdown)
	return n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto}),
		n.MustAddHost(netem.HostConfig{Name: "registrar", Location: geo.Frankfurt}),
		n.MustAddHost(netem.HostConfig{Name: "station", Location: geo.Frankfurt}),
		n.MustAddHost(netem.HostConfig{Name: "bridge", Location: geo.Frankfurt})
}

func TestRegistrationIsSingleUse(t *testing.T) {
	client, reg, station, bridgeHost := testNet(t)
	secret := []byte("s")
	// The echo parks, so the handler, which the server calls from a
	// clock event, spawns it.
	bridge, err := StartBridge(bridgeHost, 4443, Config{Secret: secret}, func(target string, conn netem.Stream) {
		bridgeHost.Network().Go(func() {
			defer conn.Close()
			io.Copy(conn, conn)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := StartInfra(reg, station, 53000, 443, Config{Secret: secret}, bridge.Addr())
	if err != nil {
		t.Fatal(err)
	}

	d := NewDialer(client, inf.RegistrarAddr(), inf.PhantomAddr(), Config{Secret: secret, Seed: 5})
	c1, err := d.Dial("t:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Replaying the same nonce against the phantom must be ignored:
	// the station deleted the registration on first use. We simulate a
	// replay by dialing the phantom with a fresh, unregistered nonce.
	raw, err := client.Dial(inf.PhantomAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write(make([]byte, nonceLen))
	raw.SetReadTimeout(30 * time.Millisecond)
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("unregistered phantom flow must get nothing")
	}
}

func TestBadRegistrationMACDropped(t *testing.T) {
	client, reg, station, bridgeHost := testNet(t)
	bridge, _ := StartBridge(bridgeHost, 4443, Config{Secret: []byte("s")}, func(string, netem.Stream) {})
	inf, err := StartInfra(reg, station, 53000, 443, Config{Secret: []byte("s")}, bridge.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// A registrar client with the wrong secret never gets an ack.
	d := NewDialer(client, inf.RegistrarAddr(), inf.PhantomAddr(), Config{Secret: []byte("wrong"), Seed: 6})
	if _, err := d.Dial("t:1"); err == nil {
		t.Fatal("registration with wrong secret must fail")
	}
}

func TestInfraRequiresSecret(t *testing.T) {
	_, reg, station, _ := testNet(t)
	if _, err := StartInfra(reg, station, 53000, 443, Config{}, "x:1"); err == nil {
		t.Fatal("infra without secret must fail")
	}
}
