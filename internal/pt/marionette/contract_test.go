package marionette

import (
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/testkit/streamtest"
)

// TestStreamContractMarionetteConn holds marionette's client and server
// ends to the stream contract, walking the FTP automaton.
func TestStreamContractMarionetteConn(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n := netem.New()
		t.Cleanup(n.Clock().Shutdown)
		handle, dial := streamtest.Tunnel(t, n.Clock())
		model := FTPWithCapacity(0)
		s, err := StartServer(n.MustAddHost(netem.HostConfig{Name: "server"}), 21, model, 1, handle)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDialer(n.MustAddHost(netem.HostConfig{Name: "client"}), s.Addr(), model, 2)
		if err != nil {
			t.Fatal(err)
		}
		a, b := dial(d.DialEvent)
		return n.Clock(), a, b
	})
}
