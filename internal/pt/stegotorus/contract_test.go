package stegotorus

import (
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/testkit/streamtest"
)

// TestStreamContractChopConn holds stegotorus's client and server ends
// to the stream contract.
func TestStreamContractChopConn(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n := netem.New()
		t.Cleanup(n.Clock().Shutdown)
		handle, dial := streamtest.Tunnel(t, n.Clock())
		s, err := StartServer(n.MustAddHost(netem.HostConfig{Name: "server"}), 80, Config{Seed: 1}, handle)
		if err != nil {
			t.Fatal(err)
		}
		a, b := dial(NewDialer(n.MustAddHost(netem.HostConfig{Name: "client"}), s.Addr(), Config{Seed: 2}).DialEvent)
		return n.Clock(), a, b
	})
}
