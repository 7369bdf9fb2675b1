package testbed

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/netem"
)

// leaseMethods move every buffer class between them: tor's cells and
// netem's segments on every path, meek's frames and stream chunks, and
// snowflake's splice pumps. Every path queues segments on pipes and
// cells on relays, so the world's node lists of both classes run too.
var leaseMethods = []string{"tor", "meek", "snowflake"}

// leaseCampaign fetches a page through each of leaseMethods in a world
// of its own and closes it, returning the accesses' times, the world's
// census after Close (buffers and queue nodes out) and the slabs of
// queue nodes its lists allocated.
func leaseCampaign(seed int64) (string, map[string]int, int, error) {
	w, err := New(Options{Seed: seed, ByteScale: 0.1, Guards: 2, Middles: 2, Exits: 2, TrancoN: 4, CBLN: 4})
	if err != nil {
		return "", nil, 0, err
	}
	defer w.Close()
	var times string
	for _, name := range leaseMethods {
		d, err := w.Deployment(name)
		if err != nil {
			return "", nil, 0, err
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: 240 * time.Second}
		res := c.Get(w.Origin.Addr(), w.CBL.Sites[1].Path, false)
		if !res.Complete() {
			return "", nil, 0, fmt.Errorf("%s: fetch failed: %v", name, res.Err)
		}
		times += fmt.Sprintf("%s %v %v\n", name, res.TTFB, res.Total)
	}
	w.Close()
	census := map[string]int{"nodes": w.Net.Acct().NodesOut()}
	for _, b := range netem.BufClasses() {
		census[b.Name()] = b.Out(w.Net.Clock())
	}
	return times, census, w.Net.Acct().NodeSlabs(), nil
}

// TestWorldsLeaseApart: two worlds on two goroutines move segments,
// cells, chunks, frames and pump buffers, and queue segments and cells
// on their node lists, at once, each leasing from its own lists and
// meeting the other only in the reservoirs, and measure what one world
// alone measures. Under -race a list that two worlds shared is a
// reported race.
func TestWorldsLeaseApart(t *testing.T) {
	want, wantCensus, _, err := leaseCampaign(5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var got [2]string
	var census [2]map[string]int
	var errs [2]error
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], census[i], _, errs[i] = leaseCampaign(5)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Errorf("world %d measured\n%s\nalone the world measured\n%s", i, got[i], want)
		}
		if fmt.Sprint(census[i]) != fmt.Sprint(wantCensus) {
			t.Errorf("world %d left %v leased at Close, alone %v", i, census[i], wantCensus)
		}
	}
}

// TestClosedWorldLeasesAgain: once a world has closed, a second
// identical world's node lists take the chains the first retired and
// make no slab, and a fresh world's first lease of every buffer class
// takes what a closed one retired and allocates nothing.
func TestClosedWorldLeasesAgain(t *testing.T) {
	if _, _, _, err := leaseCampaign(6); err != nil {
		t.Fatal(err)
	}
	if _, _, slabs, err := leaseCampaign(6); err != nil || slabs != 0 {
		t.Fatalf("a second identical world made %d slabs of queue nodes (%v), want 0", slabs, err)
	}
	const runs = 10
	classes := netem.BufClasses()
	held := make([]*[]byte, len(classes))
	var fresh []*netem.Clock
	for range runs + 1 { // AllocsPerRun's warm-up takes one too
		fresh = append(fresh, netem.NewClock())
	}
	if a := testing.AllocsPerRun(runs, func() {
		clock := fresh[0]
		fresh = fresh[1:]
		for i, b := range classes {
			held[i] = b.Get(clock)
		}
		for i, b := range classes {
			b.Put(clock, held[i])
		}
		clock.RetireBuffers()
	}); a != 0 {
		t.Fatalf("a fresh world's first leases allocated %v objects, want 0", a)
	}
}
