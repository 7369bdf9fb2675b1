package obs

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
)

// expositionCells is a synthetic campaign: two cells around an empty one.
// Cell one's relayA is missing from its second and last samples and relayB
// from its third, two methods recover (tor's points listed before
// obfs4's), the bytes-buffered gauge and relayB's pending gauge go back to
// an earlier value, and relayB's queue delay grows by 400 ns, which
// changes no six-decimal seconds.
func expositionCells() []CellTimeline {
	one := &Timeline{Interval: time.Second, Samples: []Sample{
		{
			T: time.Second,
			Acct: netem.AcctSnapshot{Dials: 2, DialsRefused: 1, ConnsOpened: 4, SegmentsSent: 10, SegmentsFiltered: 10,
				BytesSent: 1200, BytesDelivered: 800, BytesBuffered: 400, CellsQueued: 3},
			Censor: censor.Stats{BlockedDials: 1, ThrottledSegments: 4},
			Relays: []RelayPoint{
				{Relay: "relayB", Pending: 2, Queued: 3, Flushed: 1, Delay: time.Millisecond},
				{Relay: "relayA", Queued: 1, Flushed: 1, Delay: 250 * time.Microsecond},
			},
			Recovery: []RecoveryPoint{{Method: "tor", Rebuilds: 1, BuildTimeouts: 1}},
		},
		{
			T:      2 * time.Second,
			Acct:   netem.AcctSnapshot{SegmentsSent: 5, BytesSent: 400, BytesDelivered: 800, CellsFlushed: 3},
			Censor: censor.Stats{Resets: 1, LossEvents: 2},
			Relays: []RelayPoint{{Relay: "relayB", Flushed: 2, Delay: 400 * time.Nanosecond}},
			Recovery: []RecoveryPoint{
				{Method: "tor", StreamFailures: 1, ReAttaches: 1},
				{Method: "obfs4", Rebuilds: 2},
			},
		},
		{
			T:        3500 * time.Millisecond,
			Acct:     netem.AcctSnapshot{ConnsClosed: 4, BytesDropped: 10, BytesBuffered: 400},
			Censor:   censor.Stats{FlowsCut: 1},
			Relays:   []RelayPoint{{Relay: "relayA", Pending: 1, Dropped: 1, Delay: 3 * time.Millisecond}},
			Recovery: []RecoveryPoint{{Method: "obfs4", Abandoned: 1, GuardProbations: 1}},
		},
		{
			T:      5 * time.Second,
			Acct:   netem.AcctSnapshot{Dials: 1, CellsDropped: 1},
			Relays: []RelayPoint{{Relay: "relayB", Pending: 2}},
		},
	}}
	two := &Timeline{Interval: time.Second, Samples: []Sample{
		{T: time.Second, Acct: netem.AcctSnapshot{Dials: 1, BytesBuffered: 7}, Relays: []RelayPoint{{Relay: "relayA", Queued: 2}}},
		{T: 3 * time.Second, Acct: netem.AcctSnapshot{BytesDelivered: 7}, Relays: []RelayPoint{{Relay: "relayA", Flushed: 2, Delay: 2 * time.Second}}},
	}}
	return []CellTimeline{
		{Cell: `sweep/"gfw"/one`, Timeline: one},
		{Cell: "empty", Timeline: &Timeline{Interval: time.Second}},
		{Cell: "two", Timeline: two},
	}
}

// TestExpositionPinned holds the Prometheus rendering of expositionCells
// to testdata/exposition.prom, in which every family has a series.
func TestExpositionPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.prom")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WritePrometheus(&b, expositionCells())
	if got := b.String(); got != string(want) {
		t.Fatalf("exposition moved; got:\n%s", got)
	}
	for _, line := range strings.Split(string(want), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if !strings.Contains(string(want), "\n"+name+"{") {
				t.Errorf("family %s has no series", name)
			}
		}
	}
}

// TestEveryCounterHasOneFamily: each integer field of the sampled
// surfaces, set alone in a one-sample timeline, moves exactly one family
// of the export, and no two fields move the same one. A counter added to
// a surface without an export row fails here.
func TestEveryCounterHasOneFamily(t *testing.T) {
	sample := func() Sample {
		return Sample{T: time.Second, Relays: []RelayPoint{{Relay: "r"}}, Recovery: []RecoveryPoint{{Method: "m"}}}
	}
	render := func(s Sample) map[string]string {
		var b strings.Builder
		WritePrometheus(&b, []CellTimeline{{Cell: "c", Timeline: &Timeline{Interval: time.Second, Samples: []Sample{s}}}})
		out := make(map[string]string)
		for _, line := range strings.SplitAfter(b.String(), "\n") {
			if name, _, ok := strings.Cut(line, "{"); ok && !strings.HasPrefix(line, "#") {
				out[name] += line
			}
		}
		return out
	}
	base := render(sample())
	surfaces := []struct {
		name string
		of   func(*Sample) reflect.Value
		skip string
	}{
		{"netem.AcctSnapshot", func(s *Sample) reflect.Value { return reflect.ValueOf(&s.Acct).Elem() }, ""},
		{"censor.Stats", func(s *Sample) reflect.Value { return reflect.ValueOf(&s.Censor).Elem() }, ""},
		{"RelayPoint", func(s *Sample) reflect.Value { return reflect.ValueOf(&s.Relays[0]).Elem() }, "Relay"},
		{"RecoveryPoint", func(s *Sample) reflect.Value { return reflect.ValueOf(&s.Recovery[0]).Elem() }, "Method"},
	}
	movedBy := make(map[string]string)
	for _, sf := range surfaces {
		probe := sample()
		typ := sf.of(&probe).Type()
		for i := range typ.NumField() {
			field := sf.name + "." + typ.Field(i).Name
			if typ.Field(i).Name == sf.skip {
				continue
			}
			s := sample()
			v := sf.of(&s).Field(i)
			if !v.CanInt() {
				t.Errorf("%s is no integer counter", field)
				continue
			}
			v.SetInt(int64(time.Second)) // a Duration shows in six-decimal seconds too
			var moved []string
			//simlint:allow maprange -- moved is sorted before it is read.
			for name, lines := range render(s) {
				if lines != base[name] {
					moved = append(moved, name)
				}
			}
			slices.Sort(moved)
			if len(moved) != 1 {
				t.Errorf("%s moves %d families %q, want one", field, len(moved), moved)
				continue
			}
			if prev, ok := movedBy[moved[0]]; ok {
				t.Errorf("%s and %s both move %s", prev, field, moved[0])
			}
			movedBy[moved[0]] = field
		}
	}
	if len(movedBy) != len(base) {
		t.Errorf("%d of the %d families move with some field", len(movedBy), len(base))
	}
}
