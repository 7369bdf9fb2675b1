package fetch

import (
	"errors"
	"sort"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/web"
)

// DefaultBrowserConns mirrors a browser's per-origin connection pool.
const DefaultBrowserConns = 6

// LoadEvent records one resource becoming visually complete.
type LoadEvent struct {
	// At is the virtual time of completion, relative to navigation
	// start.
	At time.Duration
	// Weight is the resource's visual-completeness share.
	Weight float64
}

// PageResult is the outcome of a browser page load.
type PageResult struct {
	// OK reports whether the base document and all resources loaded.
	OK bool
	// TTFB is the base document's time to first byte.
	TTFB time.Duration
	// PageLoadTime is navigation start to last resource complete — the
	// selenium metric of Figure 2b.
	PageLoadTime time.Duration
	// SpeedIndex is the browsertime metric of Figure 11.
	SpeedIndex time.Duration
	// Bytes is the total payload transferred.
	Bytes int64
	// ResourcesLoaded / ResourcesTotal count sub-resource outcomes.
	ResourcesLoaded, ResourcesTotal int
	// Err is the first error observed, if any.
	Err error
}

// Browse emulates the paper's selenium access: fetch the default page,
// parse its resource references, then load every resource over up to
// maxConns parallel keep-alive connections. maxConns ≤ 0 selects
// DefaultBrowserConns.
func (c *Client) Browse(origin, path string, maxConns int) PageResult {
	if maxConns <= 0 {
		maxConns = DefaultBrowserConns
	}
	start := c.Net.Now()
	deadline := start + c.timeout()

	page := c.Get(origin, path, true)
	pr := PageResult{TTFB: page.TTFB, Bytes: page.BytesGot, Err: page.Err}
	if !page.Complete() {
		pr.PageLoadTime = page.Total
		if pr.Err == nil {
			pr.Err = errors.New("fetch: base document incomplete")
		}
		return pr
	}
	baseWeight, resources, ok := web.ParseManifest(page.Body)
	if !ok {
		pr.Err = errors.New("fetch: page has no manifest")
		pr.PageLoadTime = page.Total
		return pr
	}
	events := []LoadEvent{{At: page.Total, Weight: baseWeight}}
	pr.ResourcesTotal = len(resources)

	if len(resources) > 0 {
		if maxConns > len(resources) {
			maxConns = len(resources)
		}
		type done struct {
			ev    LoadEvent
			bytes int64
			err   error
		}
		// queue and results never block: queue is pre-filled and closed
		// before the workers start, and results has room for every
		// resource. Plain channels are therefore safe under the
		// discrete-event scheduler; the workers themselves are
		// simulation goroutines.
		queue := make(chan web.Resource, len(resources))
		for _, r := range resources {
			queue <- r
		}
		close(queue)
		results := make(chan done, len(resources))

		wg := netem.NewWaitGroup(c.Net.Clock())
		for w := 0; w < maxConns; w++ {
			wg.Add(1)
			c.Net.Go(func() {
				defer wg.Done()
				conn, err := c.dial(origin)
				if err != nil {
					for r := range queue {
						results <- done{err: err, ev: LoadEvent{Weight: r.VisualWeight}}
					}
					return
				}
				defer conn.Close()
				conn.SetReadTimeout(deadline - c.Net.Now())
				br := leaseReader(conn)
				defer releaseReader(br)
				for r := range queue {
					n, err := fetchOn(conn, br, r.Path)
					at := c.Net.Since(start)
					results <- done{
						ev:    LoadEvent{At: at, Weight: r.VisualWeight},
						bytes: n,
						err:   err,
					}
					if err != nil {
						// The connection is poisoned; fail remaining work.
						for r2 := range queue {
							results <- done{err: err, ev: LoadEvent{Weight: r2.VisualWeight}}
						}
						return
					}
				}
			})
		}
		wg.Wait()
		close(results)
		for d := range results {
			pr.Bytes += d.bytes
			if d.err != nil {
				if pr.Err == nil {
					pr.Err = d.err
				}
				continue
			}
			pr.ResourcesLoaded++
			events = append(events, d.ev)
		}
	}

	pr.PageLoadTime = maxEventTime(events)
	pr.SpeedIndex = SpeedIndex(events)
	pr.OK = pr.Err == nil && pr.ResourcesLoaded == pr.ResourcesTotal
	return pr
}

func maxEventTime(events []LoadEvent) time.Duration {
	var m time.Duration
	for _, e := range events {
		if e.At > m {
			m = e.At
		}
	}
	return m
}

// SpeedIndex integrates visual incompleteness over time, following the
// Lighthouse definition SI = ∫ (1 − completeness(t)) dt. Completeness
// jumps by each event's weight at its completion time; weights are
// normalized over the events actually observed.
func SpeedIndex(events []LoadEvent) time.Duration {
	if len(events) == 0 {
		return 0
	}
	evs := append([]LoadEvent(nil), events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	var total float64
	for _, e := range evs {
		total += e.Weight
	}
	if total <= 0 {
		return maxEventTime(evs)
	}
	var si float64
	var completeness float64
	var prev time.Duration
	for _, e := range evs {
		si += float64((1 - completeness) * float64(e.At-prev))
		completeness += e.Weight / total
		prev = e.At
	}
	return time.Duration(si)
}
