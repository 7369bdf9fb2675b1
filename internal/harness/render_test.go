package harness

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"ptperf/internal/pt"
	"ptperf/internal/testkit"
)

// TestSectionsMatchReport holds the HTML report's sections to the text
// report: over "all" and every optional experiment, with plots off and
// on, the section bodies concatenate to exactly the bytes Run wrote, and
// asking again returns the same sections without touching the cache. A
// renderer that sorted or edited a cell's output in place would show
// here as a section that differs from the report.
func TestSectionsMatchReport(t *testing.T) {
	ids := []string{"all"}
	for _, e := range Experiments() {
		if e.Optional {
			ids = append(ids, e.ID)
		}
	}
	// One cache for both plot settings: the plotted run renders cells
	// decoded from the cache, the plain run cells it computed itself.
	dir := t.TempDir()
	for _, plot := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.Plot = plot
		var report bytes.Buffer
		r := New(cfg, &report)
		if err := r.EnableCache(dir); err != nil {
			t.Fatalf("enable cache: %v", err)
		}
		for _, id := range ids {
			if err := r.Run(id); err != nil {
				t.Fatalf("plot=%v %s: %v", plot, id, err)
			}
		}
		st := r.CacheStats()
		first := r.Sections()
		if want := len(Experiments()); len(first) != want {
			t.Fatalf("plot=%v: %d sections, want %d (every experiment once)", plot, len(first), want)
		}
		var joined strings.Builder
		for _, s := range first {
			joined.WriteString(s.Body)
		}
		if got, want := joined.String(), report.String(); got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(0, i-200)
			t.Fatalf("plot=%v: sections differ from the report at byte %d of %d:\n--- report ---\n%s\n--- sections ---\n%s",
				plot, i, len(want), want[lo:min(len(want), i+200)], got[lo:min(len(got), i+200)])
		}
		if second := r.Sections(); !reflect.DeepEqual(first, second) {
			t.Fatalf("plot=%v: a second Sections call returned different sections", plot)
		}
		if got := r.CacheStats(); got != st {
			t.Fatalf("plot=%v: Sections moved the cache counters from %+v to %+v", plot, st, got)
		}
	}
}

// TestCachedRunAllocationBudget holds a cached Run("all") with plots on,
// the bench's warm workload, to what reading cells and printing the
// report costs: the report is written once, straight to the Runner's
// writer, and no section is kept for an HTML report nobody asked for.
func TestCachedRunAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector adds allocations of its own")
	}
	cfg := Config{
		Seed:         1,
		ByteScale:    0.06,
		Sites:        4,
		Repeats:      1,
		FileAttempts: 1,
		FileSizesMB:  []int{5, 10},
		Jobs:         1,
		Plot:         true,
	}
	dir := t.TempDir()
	run := func(cached bool) {
		r := New(cfg, io.Discard)
		if err := r.EnableCache(dir); err != nil {
			t.Fatalf("enable cache: %v", err)
		}
		if err := r.Run("all"); err != nil {
			t.Fatalf("all: %v", err)
		}
		if st := r.CacheStats(); cached && st.Misses != 0 {
			t.Fatalf("cached run missed: %+v", st)
		}
	}
	run(false) // fills the cache
	run(true)  // warms what a first cached read sets up once
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(true)
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	objsPer := (after.Mallocs - before.Mallocs) / runs
	t.Logf("cached Run(\"all\"): %d B and %d objects per run", bytesPer, objsPer)
	if bytesPer > 160_000 || objsPer > 1650 {
		t.Fatalf("cached Run(\"all\") allocates %d B and %d objects per run, budget 160 000 B and 1 650", bytesPer, objsPer)
	}
}

// orderedBySortSlice is orderedMethods as it was: a rank map built per
// call and sort.Slice.
func orderedBySortSlice(methods []string) []string {
	rank := map[string]int{"tor": 0}
	for i, n := range pt.Names() {
		rank[n] = i + 1
	}
	out := append([]string(nil), methods...)
	sort.Slice(out, func(i, j int) bool { return rank[out[i]] < rank[out[j]] })
	return out
}

// TestOrderedMethodsMatchesSortSlice: Tor first, then the paper's order;
// the same rows as sort.Slice gave, ties and unknown names included, over
// drawn lists; and one allocation, the returned slice.
func TestOrderedMethodsMatchesSortSlice(t *testing.T) {
	names := append([]string{"tor"}, pt.Names()...)
	rev := slices.Clone(names)
	slices.Reverse(rev)
	if got := orderedMethods(rev); !slices.Equal(got, names) {
		t.Fatalf("orderedMethods(%v) = %v, want %v", rev, got, names)
	}
	pool := append(slices.Clone(names), "x", "y", "z")
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		in := make([]string, rng.Intn(40))
		for i := range in {
			in[i] = pool[rng.Intn(len(pool))]
		}
		if got, want := orderedMethods(in), orderedBySortSlice(in); !slices.Equal(got, want) {
			t.Fatalf("orderedMethods(%v) = %v, sort.Slice gave %v", in, got, want)
		}
	}
	if testkit.Race {
		t.Skip("the race detector adds allocations of its own")
	}
	if n := testing.AllocsPerRun(100, func() { orderedMethods(rev) }); n > 1 {
		t.Errorf("orderedMethods allocates %v times per call, want 1", n)
	}
}
