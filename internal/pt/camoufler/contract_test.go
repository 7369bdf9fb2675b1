package camoufler

import (
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/testkit/streamtest"
)

// TestStreamContractIMConn holds camoufler's client and proxy ends to
// the stream contract, dialed through an IM provider that loses nothing.
func TestStreamContractIMConn(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n := netem.New()
		t.Cleanup(n.Clock().Shutdown)
		cfg := Config{LossProb: -1}
		s, err := StartIMServer(n.MustAddHost(netem.HostConfig{Name: "im"}), 5222, cfg)
		if err != nil {
			t.Fatal(err)
		}
		handle, dial := streamtest.Tunnel(t, n.Clock())
		proxy, _ := StartProxy(n.MustAddHost(netem.HostConfig{Name: "proxy"}), s.Addr(), "acct", cfg, handle)
		a, b := dial(NewDialer(n.MustAddHost(netem.HostConfig{Name: "client"}), s.Addr(), "acct", cfg, proxy).DialEvent)
		return n.Clock(), a, b
	})
}
