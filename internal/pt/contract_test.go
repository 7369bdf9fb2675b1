package pt_test

import (
	"bytes"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/testkit/streamtest"
	"ptperf/internal/testkit/tracekit"
)

// TestStreamContractRecordConn holds the record framing to the stream
// contract: padded records behind a flight each end skips, over a slow
// link, so that reads wait and time out inside records.
func TestStreamContractRecordConn(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n, ca, cb := streamtest.Conns(t, 50<<10)
		ends := [2]netem.Stream{}
		for i, c := range []*netem.Conn{ca, cb} {
			c.Write(bytes.Repeat([]byte{0xee}, 100+i*57))
			rc, _ := pt.NewRecordConn(c, pt.RecordConfig{Header: []byte{0x17, 0x03, 0x03}, MaxPadding: 64, Seed: int64(i)})
			rc.SkipFirst(157 - i*57)
			ends[i] = rc
		}
		return n.Clock(), ends[0], ends[1]
	})
}

// TestStreamContractStream holds the tunnelled endpoint every polling
// and messaging transport hands out to the stream contract, moved over a
// netem conn a few KiB a millisecond (tracekit.Stream).
func TestStreamContractStream(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n, ca, cb := streamtest.Conns(t, 0)
		return n.Clock(), tracekit.Stream(n.Clock(), ca, 3000), tracekit.Stream(n.Clock(), cb, 3000)
	})
}
