package streamtest

import (
	"testing"

	"ptperf/internal/netem"
)

// Conns dials a netem conn from host a to host b of a fresh two-host
// world whose links carry bps bytes a second (0: netem's default), for
// the rows that wrap netem conns. The world ends with the test.
func Conns(t *testing.T, bps float64) (n *netem.Network, a, b *netem.Conn) {
	n, as, bs := Pairs(t, bps, 1)
	return n, as[0], bs[0]
}

// Pairs is Conns for k conns of one world: a[i] is the i-th dialed end
// and b[i] the end host b accepted for it.
func Pairs(t *testing.T, bps float64, k int) (n *netem.Network, a, b []*netem.Conn) {
	n = netem.New()
	t.Cleanup(n.Clock().Shutdown)
	n.MustAddHost(netem.HostConfig{Name: "a", UplinkBps: bps, DownlinkBps: bps})
	l, _ := n.MustAddHost(netem.HostConfig{Name: "b", UplinkBps: bps, DownlinkBps: bps}).Listen(1)
	accepted := netem.NewChan[*netem.Conn](n.Clock(), 1)
	l.Serve(func(c *netem.Conn) { accepted.TrySend(c) })
	for range k {
		c, err := n.Host("a").Dial("b:1")
		if err != nil {
			t.Fatal(err)
		}
		peer, _ := accepted.Recv()
		a, b = append(a, c.(*netem.Conn)), append(b, peer)
	}
	return n, a, b
}

// Tunnel returns a transport server's stream handler and a dial through
// the transport's client, which returns the client's stream with the one
// the handler was handed.
func Tunnel(t *testing.T, clock *netem.Clock) (handle func(string, netem.Stream), dial func(dialEvent func(string, func(netem.Stream, error)) (netem.Stream, error, bool)) (a, b netem.Stream)) {
	served := netem.NewChan[netem.Stream](clock, 1)
	return func(_ string, s netem.Stream) { served.TrySend(s) }, func(dialEvent func(string, func(netem.Stream, error)) (netem.Stream, error, bool)) (netem.Stream, netem.Stream) {
		a, err := netem.Await(clock, func(done func(netem.Stream, error)) (netem.Stream, error, bool) { return dialEvent("target:80", done) })
		if err != nil {
			t.Fatal(err)
		}
		b, _ := served.Recv()
		return a, b
	}
}
