package streamtest_test

import (
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/testkit"
	"ptperf/internal/testkit/streamtest"
)

func TestMain(m *testing.M) { testkit.Main(m, "streamtest") }

// TestStreamContractAltered: netem conns whose reads are cut into drawn
// spans still keep the contract.
func TestStreamContractAltered(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n, a, b := streamtest.Conns(t, 0)
		// A span drawn from where it starts is the same in every form.
		span := func(got, _ int) int { return 1 + int(uint64(got)*0x9e3779b97f4a7c15>>40)%5000 }
		return n.Clock(), streamtest.Alter(a, span), streamtest.Alter(b, span)
	})
}
