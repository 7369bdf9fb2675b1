package tracekit

import (
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/testkit/streamtest"
)

// TestStreamContractConn: a netem conn whose calls a trace records keeps
// the stream contract.
func TestStreamContractConn(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n, a, b := streamtest.Conns(t, 0)
		tr := New(n)
		return n.Clock(), tr.Calls(a, "a"), tr.Calls(b, "b")
	})
}
