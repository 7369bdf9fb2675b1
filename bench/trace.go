package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// files around the call. Parent is the id of the enclosing span, -1 for
// a root; spans of one in-process repeat share Iter.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Iter    int    `json:"iteration"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so the untraced iteration pays only a nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: hostNow()} }

func (t *tracer) begin(name string, parent, iter int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Iter: iter, Name: name,
		StartNS: int64(hostNow().Sub(t.t0)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = int64(hostNow().Sub(t.t0))
	}
}

// elapsed is the time since span id began.
func (t *tracer) elapsed(id int) time.Duration {
	return hostNow().Sub(t.t0) - time.Duration(t.spans[id].StartNS)
}

// selfTimes returns each span's duration minus the part its direct
// children cover, indexed by span id.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += time.Duration(s.EndNS - s.StartNS)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.EndNS - s.StartNS)
		}
	}
	return self
}

// write stores the spans, each with its self time, as one JSON file.
func (t *tracer) write(path string) error {
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, int64(self[i])}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuBuckets are the ten cpu.* shares in reporting order.
var cpuBuckets = []string{
	"cpu.futex", "cpu.gc", "cpu.runtime", "cpu.netem", "cpu.tor",
	"cpu.crypto", "cpu.pt", "cpu.app", "cpu.censor", "cpu.harness",
}

// bucketPrefixes maps a function-name prefix to its cpu.* bucket; the
// first match wins, and anything unmatched (the Go scheduler, memmove,
// syscalls, sync, the rest of the standard library) is cpu.runtime.
var bucketPrefixes = []struct{ prefix, bucket string }{
	{"runtime.futex", "cpu.futex"},
	{"ptperf/internal/netem.", "cpu.netem"},
	{"container/heap.", "cpu.netem"},
	{"ptperf/internal/tor.", "cpu.tor"},
	{"crypto/", "cpu.crypto"},
	{"ptperf/internal/pt.", "cpu.pt"},
	{"ptperf/internal/pt/", "cpu.pt"},
	{"ptperf/internal/web.", "cpu.app"},
	{"ptperf/internal/fetch.", "cpu.app"},
	{"ptperf/internal/socks.", "cpu.app"},
	{"ptperf/internal/censor.", "cpu.censor"},
	{"ptperf/internal/faults.", "cpu.censor"},
	{"ptperf/internal/", "cpu.harness"}, // harness, testbed, sim, obs, stats, plot, geo
	{"main.", "cpu.harness"},
	// What report rendering and cache decoding run on.
	{"encoding/", "cpu.harness"},
	{"fmt.", "cpu.harness"},
	{"math.", "cpu.harness"}, // stats' t-quantiles
	{"strconv.", "cpu.harness"},
	{"sort.", "cpu.harness"},
	{"slices.", "cpu.harness"},
	{"text/", "cpu.harness"},
	{"html.", "cpu.harness"},
	{"reflect.", "cpu.harness"},
	{"unicode", "cpu.harness"},
}

// gcFuncs matches the runtime's collector and allocator by flat
// function name: cpu.gc is GC plus malloc.
var gcFuncs = regexp.MustCompile(`^runtime\.(gc|malloc|scan|grey|mark|sweep|bgsweep|bgscavenge|wbBuf|newobject|makeslice|growslice|nextFree|heapBits|heapSetType|typePointers|findObject|spanOf|bulkBarrier|memclr|deductAssistCredit|\(\*(mspan|mcache|mcentral|mheap|gcWork|gcBits|sweepLocked|lfstack|gcControllerState|scavenge\w*|pageAlloc|wbBuf|typePointers|limiterEvent)\))`)

func bucketOf(fn string) string {
	for _, p := range bucketPrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.bucket
		}
	}
	if gcFuncs.MatchString(fn) {
		return "cpu.gc"
	}
	return "cpu.runtime"
}

// parsePprofDuration reads a pprof -top time such as "10ms" or "1.20s".
func parsePprofDuration(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{
		{"hrs", time.Hour}, {"mins", time.Minute}, {"ms", time.Millisecond},
		{"us", time.Microsecond}, {"µs", time.Microsecond}, {"ns", time.Nanosecond}, {"s", time.Second},
	} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof duration %q: %w", s, err)
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	if s == "0" {
		return 0, nil
	}
	return 0, fmt.Errorf("pprof duration %q: unknown unit", s)
}

// bucketProfile sums the flat time of each `go tool pprof -top` row
// into its cpu.* bucket and returns the shares, which sum to 1, and
// the total flat time.
func bucketProfile(top string) (map[string]float64, time.Duration, error) {
	flat := make(map[string]time.Duration, len(cpuBuckets))
	var total time.Duration
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := parsePprofDuration(f[0])
		if err != nil {
			return nil, 0, err
		}
		flat[bucketOf(f[5])] += d
		total += d
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof -top output holds no samples")
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = float64(flat[b]) / float64(total)
	}
	return shares, total, nil
}
