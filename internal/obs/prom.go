package obs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"ptperf/internal/plot"
)

// This file renders timelines as Prometheus text exposition (version
// 0.0.4): "# HELP"/"# TYPE" headers followed by sample lines with
// millisecond timestamps of VIRTUAL time. The output is deterministic —
// families in table order, cells in caller order, relays and methods
// sorted, fixed number formats — so a byte-compare of two dumps is a
// valid determinism check, and the cache can treat the rendering as
// canonical. Counter series are cumulative (re-summed from the stored
// interval deltas); a point is written only when its rendered value
// changed since the previous point, plus always at the first and the
// final sample, which keeps long drains from bloating the dump.

// kind is how a family's sample values become points.
type kind uint8

const (
	counter kind = iota // the running sum of the samples' deltas
	gauge               // each sample's own value
	seconds             // a counter of nanoseconds, written as seconds to six decimals
)

// typeOf is each kind's "# TYPE".
var typeOf = [...]string{counter: "counter", gauge: "gauge", seconds: "counter"}

// family is one exported metric. Every metric is one row of families.
type family struct {
	name, help string
	kind       kind
	// label is the series' label beside cell: "" (one series per
	// cell), "relay" or "method" (one per relay or method the cell's
	// samples name).
	label string
	// spark is the HTML sparkline row the family adds to (sparkRows),
	// "" for none.
	spark string
	// value reads the family at one sample for one label value, zero
	// when the sample lacks the point.
	value func(s Sample, label string) int64
}

// families are the exported metrics, in output order.
var families = []family{
	{"ptperf_dials_total", "Connection attempts that reached policy/establishment.", counter, "", "dials", func(s Sample, _ string) int64 { return s.Acct.Dials }},
	{"ptperf_dials_refused_total", "Dials refused by the installed censor policy.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.DialsRefused }},
	{"ptperf_conns_opened_total", "Established conn endpoints (two per flow).", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.ConnsOpened }},
	{"ptperf_conns_closed_total", "Conn endpoints closed or aborted.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.ConnsClosed }},
	{"ptperf_segments_sent_total", "Segments accepted into pipes.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.SegmentsSent }},
	{"ptperf_segments_filtered_total", "Policy FilterSegment consultations.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.SegmentsFiltered }},
	{"ptperf_bytes_sent_total", "Payload bytes accepted into pipes.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.BytesSent }},
	{"ptperf_bytes_delivered_total", "Payload bytes read out of pipes.", counter, "", "bytes delivered", func(s Sample, _ string) int64 { return s.Acct.BytesDelivered }},
	{"ptperf_bytes_dropped_total", "Buffered bytes discarded by reader closes.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.BytesDropped }},
	{"ptperf_cells_queued_total", "Relay cells accepted into per-circuit queues.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.CellsQueued }},
	{"ptperf_cells_flushed_total", "Queued relay cells written to links.", counter, "", "relay cells flushed", func(s Sample, _ string) int64 { return s.Acct.CellsFlushed }},
	{"ptperf_cells_dropped_total", "Queued relay cells discarded at teardown.", counter, "", "", func(s Sample, _ string) int64 { return s.Acct.CellsDropped }},
	{"ptperf_bytes_buffered", "Bytes in flight in live pipes (gauge).", gauge, "", "", func(s Sample, _ string) int64 { return s.Acct.BytesBuffered }},

	{"ptperf_censor_blocked_dials_total", "Dials refused by Block rules.", counter, "", "censor interference", func(s Sample, _ string) int64 { return int64(s.Censor.BlockedDials) }},
	{"ptperf_censor_flows_cut_total", "Established flows torn down by rule activation.", counter, "", "censor interference", func(s Sample, _ string) int64 { return int64(s.Censor.FlowsCut) }},
	{"ptperf_censor_resets_total", "Injected mid-flight RSTs.", counter, "", "censor interference", func(s Sample, _ string) int64 { return int64(s.Censor.Resets) }},
	{"ptperf_censor_loss_events_total", "Induced per-segment loss events.", counter, "", "censor interference", func(s Sample, _ string) int64 { return int64(s.Censor.LossEvents) }},
	{"ptperf_censor_throttled_segments_total", "Segments serialized through a throttle.", counter, "", "censor interference", func(s Sample, _ string) int64 { return int64(s.Censor.ThrottledSegments) }},

	{"ptperf_relay_cells_queued_total", "Cells accepted into this relay's circuit queues.", counter, "relay", "", relay(func(p RelayPoint) int64 { return p.Queued })},
	{"ptperf_relay_cells_flushed_total", "Cells this relay's scheduler wrote to links.", counter, "relay", "", relay(func(p RelayPoint) int64 { return p.Flushed })},
	{"ptperf_relay_cells_dropped_total", "Cells this relay dropped at circuit teardown.", counter, "relay", "", relay(func(p RelayPoint) int64 { return p.Dropped })},
	{"ptperf_relay_queue_delay_seconds_total", "Queueing delay accumulated by flushed cells.", seconds, "relay", "", relay(func(p RelayPoint) int64 { return int64(p.Delay) })},
	{"ptperf_relay_sched_pending", "Cells sitting in this relay's circuit queues (gauge).", gauge, "relay", "", relay(func(p RelayPoint) int64 { return p.Pending })},

	{"ptperf_recovery_rebuilds_total", "Circuit-build attempts after a failed one.", counter, "method", "recovery events", method(func(p RecoveryPoint) int64 { return p.Rebuilds })},
	{"ptperf_recovery_build_timeouts_total", "Circuit builds that hit the build timeout.", counter, "method", "recovery events", method(func(p RecoveryPoint) int64 { return p.BuildTimeouts })},
	{"ptperf_recovery_stream_failures_total", "Stream opens that failed on a circuit.", counter, "method", "recovery events", method(func(p RecoveryPoint) int64 { return p.StreamFailures })},
	{"ptperf_recovery_reattaches_total", "Streams re-attached to a fresh circuit.", counter, "method", "recovery events", method(func(p RecoveryPoint) int64 { return p.ReAttaches })},
	{"ptperf_recovery_abandoned_total", "Streams given up after exhausting retries.", counter, "method", "recovery events", method(func(p RecoveryPoint) int64 { return p.Abandoned })},
	{"ptperf_recovery_guard_probations_total", "Guard-failure probation sentences.", counter, "method", "recovery events", method(func(p RecoveryPoint) int64 { return p.GuardProbations })},
}

// relay and method make the value of a family with that label from a
// read of the sample's point that the label names.
func relay(f func(RelayPoint) int64) func(Sample, string) int64 {
	return func(s Sample, name string) int64 {
		for _, p := range s.Relays {
			if p.Relay == name {
				return f(p)
			}
		}
		return 0
	}
}

func method(f func(RecoveryPoint) int64) func(Sample, string) int64 {
	return func(s Sample, name string) int64 {
		for _, p := range s.Recovery {
			if p.Method == name {
				return f(p)
			}
		}
		return 0
	}
}

// labels lists the values f's label takes in samples, sorted: one
// series each, and "" alone for a family without a label.
func (f family) labels(samples []Sample) []string {
	if f.label == "" {
		return []string{""}
	}
	var names []string
	for _, s := range samples {
		if f.label == "relay" {
			for _, p := range s.Relays {
				names = append(names, p.Relay)
			}
		} else {
			for _, p := range s.Recovery {
				names = append(names, p.Method)
			}
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// WritePrometheus renders the cells' timelines as Prometheus text
// exposition in the order given. Cells with nil or empty timelines are
// skipped silently.
func WritePrometheus(w io.Writer, cells []CellTimeline) {
	live := slices.DeleteFunc(slices.Clone(cells), func(c CellTimeline) bool {
		return c.Timeline == nil || len(c.Timeline.Samples) == 0
	})
	if len(live) == 0 {
		return
	}
	var series, point, last []byte
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typeOf[f.kind])
		for _, c := range live {
			for _, l := range f.labels(c.Timeline.Samples) {
				series = fmt.Appendf(series[:0], "%s{cell=%q", f.name, c.Cell)
				if f.label != "" {
					series = fmt.Appendf(series, ",%s=%q", f.label, l)
				}
				var v int64
				samples := c.Timeline.Samples
				for i, s := range samples {
					prev := v
					if v = f.value(s, l); f.kind != gauge {
						v += prev
					}
					inner := i > 0 && i < len(samples)-1
					if inner && v == prev {
						continue
					}
					if f.kind == seconds {
						point = plot.AppendFixed(point[:0], time.Duration(v).Seconds(), 6)
					} else {
						point = strconv.AppendInt(point[:0], v, 10)
					}
					if !inner || !bytes.Equal(point, last) {
						fmt.Fprintf(w, "%s} %s %d\n", series, point, int64(s.T/time.Millisecond))
						last, point = point, last
					}
				}
			}
		}
	}
}
