package tor

import (
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/testkit/streamtest"
)

// TestStreamContractStream holds a Tor stream to the stream contract,
// paired with the conn its exit opens to the target. A stream has no
// half-close: the exit answers the target's FIN with an END that closes
// both directions, so the row hands the target's conn out without its
// CloseWrite and the kit half-closes it with Close.
func TestStreamContractStream(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		w := buildWorld(t, 1, 1, 1)
		l, _ := w.net.MustAddHost(netem.HostConfig{Name: "sink"}).Listen(1)
		accepted := netem.NewChan[*netem.Conn](w.net.Clock(), 1)
		l.Serve(func(c *netem.Conn) { accepted.TrySend(c) })
		a, err := newTestClient(t, w, nil).Dial("sink:1")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := accepted.Recv()
		return w.net.Clock(), a, struct{ netem.Stream }{b}
	})
}
