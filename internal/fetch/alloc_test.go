package fetch

import (
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/testkit"
	"ptperf/internal/web"
)

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAccessAllocationBudget holds the access path to what it costs once
// the pools are warm: an access pays for its conns, its goroutines and
// the body it was asked to keep, not for buffers sized to the transfer.
func TestAccessAllocationBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	site := web.Site{List: web.Tranco, Path: "/site/tranco/0", PageBytes: 32 << 10, BaseVisualWeight: 0.2}
	pageBytes := site.PageBytes
	for k := 0; k < 20; k++ {
		site.Resources = append(site.Resources, web.Resource{
			Path: fmt.Sprintf("/res/tranco/0/%d", k), Bytes: 32 << 10, VisualWeight: 0.04,
		})
		pageBytes += 32 << 10
	}
	n := netem.New(netem.WithSeed(4))
	t.Cleanup(n.Clock().Shutdown)
	server := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.Frankfurt})
	clientHost := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.London})
	o, err := web.StartOrigin(server, 80, &web.Catalog{List: web.Tranco, Sites: []web.Site{site}})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Net: n, Dial: func(target string) (net.Conn, error) { return clientHost.Dial(target) }}

	// From the warm-ups on, what went into a pool must be there to lease
	// again: the collector empties pools, and a goroutine that moves to
	// another P does not see what it left in the private slot of the last.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	get := func() {
		if res := c.DownloadFile(o.Addr(), 256<<10); !res.Complete() {
			t.Fatalf("download: %+v", res)
		}
	}
	// The budgets are a little over what the access costs: 1.2 KB for a
	// Get and 47 KB, most of it the page body kept, for a Browse.
	get() // warm-up: fills the pools
	got := allocated(get)
	t.Logf("warm Get of 256 KiB: %d bytes allocated", got)
	if got >= 4<<10 {
		t.Errorf("a warm Get of a 256 KiB body allocated %d bytes, budget %d", got, 4<<10)
	}

	browse := func() {
		if pr := c.Browse(o.Addr(), site.Path, 6); !pr.OK || pr.ResourcesLoaded != 20 {
			t.Fatalf("browse: %+v", pr)
		}
	}
	browse()
	budget := uint64(64 << 10)
	got = allocated(browse)
	t.Logf("warm Browse of %d bytes: %d bytes allocated", pageBytes, got)
	if got >= budget {
		t.Errorf("a warm six-conn Browse of %d bytes allocated %d bytes, budget %d", pageBytes, got, budget)
	}
}
