package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
	"ptperf/internal/plot"
)

// This file renders timelines as Prometheus text exposition (version
// 0.0.4): "# HELP"/"# TYPE" headers followed by sample lines with
// millisecond timestamps of VIRTUAL time. The output is deterministic —
// cells in caller order, relays and methods sorted, fixed number
// formats — so a byte-compare of two dumps is a valid determinism
// check, and the cache can treat the rendering as canonical. Counter
// series are cumulative (re-summed from the stored interval deltas);
// a point is emitted only when the value changed since the previous
// emitted point, plus always at the final sample, which keeps long
// drains from bloating the dump.

// acctCounters maps metric names to AcctSnapshot delta fields, in
// output order.
var acctCounters = []struct {
	name, help string
	field      func(netem.AcctSnapshot) int64
}{
	{"ptperf_dials_total", "Connection attempts that reached policy/establishment.", func(a netem.AcctSnapshot) int64 { return a.Dials }},
	{"ptperf_dials_refused_total", "Dials refused by the installed censor policy.", func(a netem.AcctSnapshot) int64 { return a.DialsRefused }},
	{"ptperf_conns_opened_total", "Established conn endpoints (two per flow).", func(a netem.AcctSnapshot) int64 { return a.ConnsOpened }},
	{"ptperf_conns_closed_total", "Conn endpoints closed or aborted.", func(a netem.AcctSnapshot) int64 { return a.ConnsClosed }},
	{"ptperf_segments_sent_total", "Segments accepted into pipes.", func(a netem.AcctSnapshot) int64 { return a.SegmentsSent }},
	{"ptperf_segments_filtered_total", "Policy FilterSegment consultations.", func(a netem.AcctSnapshot) int64 { return a.SegmentsFiltered }},
	{"ptperf_bytes_sent_total", "Payload bytes accepted into pipes.", func(a netem.AcctSnapshot) int64 { return a.BytesSent }},
	{"ptperf_bytes_delivered_total", "Payload bytes read out of pipes.", func(a netem.AcctSnapshot) int64 { return a.BytesDelivered }},
	{"ptperf_bytes_dropped_total", "Buffered bytes discarded by reader closes.", func(a netem.AcctSnapshot) int64 { return a.BytesDropped }},
	{"ptperf_cells_queued_total", "Relay cells accepted into per-circuit queues.", func(a netem.AcctSnapshot) int64 { return a.CellsQueued }},
	{"ptperf_cells_flushed_total", "Queued relay cells written to links.", func(a netem.AcctSnapshot) int64 { return a.CellsFlushed }},
	{"ptperf_cells_dropped_total", "Queued relay cells discarded at teardown.", func(a netem.AcctSnapshot) int64 { return a.CellsDropped }},
}

// censorCounters maps metric names to censor.Stats delta fields.
var censorCounters = []struct {
	name, help string
	field      func(censor.Stats) int64
}{
	{"ptperf_censor_blocked_dials_total", "Dials refused by Block rules.", func(s censor.Stats) int64 { return int64(s.BlockedDials) }},
	{"ptperf_censor_flows_cut_total", "Established flows torn down by rule activation.", func(s censor.Stats) int64 { return int64(s.FlowsCut) }},
	{"ptperf_censor_resets_total", "Injected mid-flight RSTs.", func(s censor.Stats) int64 { return int64(s.Resets) }},
	{"ptperf_censor_loss_events_total", "Induced per-segment loss events.", func(s censor.Stats) int64 { return int64(s.LossEvents) }},
	{"ptperf_censor_throttled_segments_total", "Segments serialized through a throttle.", func(s censor.Stats) int64 { return int64(s.ThrottledSegments) }},
}

// relayCounters maps metric names to RelayPoint delta fields.
var relayCounters = []struct {
	name, help string
	field      func(RelayPoint) int64
}{
	{"ptperf_relay_cells_queued_total", "Cells accepted into this relay's circuit queues.", func(p RelayPoint) int64 { return p.Queued }},
	{"ptperf_relay_cells_flushed_total", "Cells this relay's scheduler wrote to links.", func(p RelayPoint) int64 { return p.Flushed }},
	{"ptperf_relay_cells_dropped_total", "Cells this relay dropped at circuit teardown.", func(p RelayPoint) int64 { return p.Dropped }},
}

// recoveryCounters maps metric names to RecoveryPoint delta fields.
var recoveryCounters = []struct {
	name, help string
	field      func(RecoveryPoint) int64
}{
	{"ptperf_recovery_rebuilds_total", "Circuit-build attempts after a failed one.", func(p RecoveryPoint) int64 { return p.Rebuilds }},
	{"ptperf_recovery_build_timeouts_total", "Circuit builds that hit the build timeout.", func(p RecoveryPoint) int64 { return p.BuildTimeouts }},
	{"ptperf_recovery_stream_failures_total", "Stream opens that failed on a circuit.", func(p RecoveryPoint) int64 { return p.StreamFailures }},
	{"ptperf_recovery_reattaches_total", "Streams re-attached to a fresh circuit.", func(p RecoveryPoint) int64 { return p.ReAttaches }},
	{"ptperf_recovery_abandoned_total", "Streams given up after exhausting retries.", func(p RecoveryPoint) int64 { return p.Abandoned }},
	{"ptperf_recovery_guard_probations_total", "Guard-failure probation sentences.", func(p RecoveryPoint) int64 { return p.GuardProbations }},
}

// WritePrometheus renders the cells' timelines as Prometheus text
// exposition in the order given. Cells with nil or empty timelines are
// skipped silently.
func WritePrometheus(w io.Writer, cells []CellTimeline) {
	ms := func(t time.Duration) int64 { return int64(t / time.Millisecond) }

	// emit writes one counter series for one cell: cumulative values at
	// each change point, plus the final sample.
	emit := func(name, labels string, tl *Timeline, delta func(Sample) int64) {
		var cum, lastWritten int64
		wrote := false
		for i, s := range tl.Samples {
			cum += delta(s)
			final := i == len(tl.Samples)-1
			if !wrote || cum != lastWritten || final {
				fmt.Fprintf(w, "%s{%s} %d %d\n", name, labels, cum, ms(s.T))
				lastWritten, wrote = cum, true
			}
		}
	}

	header := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	live := make([]CellTimeline, 0, len(cells))
	for _, c := range cells {
		if c.Timeline != nil && len(c.Timeline.Samples) > 0 {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return
	}

	for _, m := range acctCounters {
		m := m
		header(m.name, m.help, "counter")
		for _, c := range live {
			emit(m.name, fmt.Sprintf("cell=%q", c.Cell), c.Timeline, func(s Sample) int64 { return m.field(s.Acct) })
		}
	}

	header("ptperf_bytes_buffered", "Bytes in flight in live pipes (gauge).", "gauge")
	for _, c := range live {
		labels := fmt.Sprintf("cell=%q", c.Cell)
		var last int64
		wrote := false
		for i, s := range c.Timeline.Samples {
			v := s.Acct.BytesBuffered
			final := i == len(c.Timeline.Samples)-1
			if !wrote || v != last || final {
				fmt.Fprintf(w, "ptperf_bytes_buffered{%s} %d %d\n", labels, v, ms(s.T))
				last, wrote = v, true
			}
		}
	}

	for _, m := range censorCounters {
		m := m
		header(m.name, m.help, "counter")
		for _, c := range live {
			emit(m.name, fmt.Sprintf("cell=%q", c.Cell), c.Timeline, func(s Sample) int64 { return m.field(s.Censor) })
		}
	}

	// Per-relay series: collect each cell's relay names (sorted) and
	// emit one series per (cell, relay).
	relayNames := func(tl *Timeline) []string {
		seen := make(map[string]bool)
		var names []string
		for _, s := range tl.Samples {
			for _, p := range s.Relays {
				if !seen[p.Relay] {
					seen[p.Relay] = true
					names = append(names, p.Relay)
				}
			}
		}
		sort.Strings(names)
		return names
	}
	relayPoint := func(s Sample, name string) (RelayPoint, bool) {
		for _, p := range s.Relays {
			if p.Relay == name {
				return p, true
			}
		}
		return RelayPoint{}, false
	}
	for _, m := range relayCounters {
		m := m
		header(m.name, m.help, "counter")
		for _, c := range live {
			for _, name := range relayNames(c.Timeline) {
				name := name
				emit(m.name, fmt.Sprintf("cell=%q,relay=%q", c.Cell, name), c.Timeline, func(s Sample) int64 {
					p, _ := relayPoint(s, name)
					return m.field(p)
				})
			}
		}
	}
	header("ptperf_relay_queue_delay_seconds_total", "Queueing delay accumulated by flushed cells.", "counter")
	for _, c := range live {
		for _, name := range relayNames(c.Timeline) {
			var cum time.Duration
			var lastWritten string
			for i, s := range c.Timeline.Samples {
				if p, ok := relayPoint(s, name); ok {
					cum += p.Delay
				}
				v := string(plot.AppendFixed(nil, cum.Seconds(), 6))
				final := i == len(c.Timeline.Samples)-1
				if lastWritten == "" || v != lastWritten || final {
					fmt.Fprintf(w, "ptperf_relay_queue_delay_seconds_total{cell=%q,relay=%q} %s %d\n", c.Cell, name, v, ms(s.T))
					lastWritten = v
				}
			}
		}
	}
	header("ptperf_relay_sched_pending", "Cells sitting in this relay's circuit queues (gauge).", "gauge")
	for _, c := range live {
		for _, name := range relayNames(c.Timeline) {
			var last int64
			wrote := false
			for i, s := range c.Timeline.Samples {
				p, _ := relayPoint(s, name)
				final := i == len(c.Timeline.Samples)-1
				if !wrote || p.Pending != last || final {
					fmt.Fprintf(w, "ptperf_relay_sched_pending{cell=%q,relay=%q} %d %d\n", c.Cell, name, p.Pending, ms(s.T))
					last, wrote = p.Pending, true
				}
			}
		}
	}

	// Per-method recovery series.
	methodNames := func(tl *Timeline) []string {
		seen := make(map[string]bool)
		var names []string
		for _, s := range tl.Samples {
			for _, p := range s.Recovery {
				if !seen[p.Method] {
					seen[p.Method] = true
					names = append(names, p.Method)
				}
			}
		}
		sort.Strings(names)
		return names
	}
	for _, m := range recoveryCounters {
		m := m
		header(m.name, m.help, "counter")
		for _, c := range live {
			for _, name := range methodNames(c.Timeline) {
				name := name
				emit(m.name, fmt.Sprintf("cell=%q,method=%q", c.Cell, name), c.Timeline, func(s Sample) int64 {
					for _, p := range s.Recovery {
						if p.Method == name {
							return m.field(p)
						}
					}
					return 0
				})
			}
		}
	}
}
