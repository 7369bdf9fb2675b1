package fetch

import (
	"net"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/testkit/streamtest"
	"ptperf/internal/web"
)

func testSetup(t *testing.T) (*netem.Network, *Client, *web.Origin, *web.Catalog) {
	t.Helper()
	// Scale 0.01 keeps goroutine-wakeup noise (~tens of µs real) well
	// below the modeled RTTs, so latency-sensitive assertions hold.
	n := netem.New(netem.WithSeed(4))
	t.Cleanup(n.Clock().Shutdown)
	server := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.Frankfurt})
	clientHost := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.London})
	cat := web.GenerateCatalog(web.Tranco, 4, 1, 0.1)
	o, err := web.StartOrigin(server, 80, cat)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Net: n, Dial: func(target string) (net.Conn, error) { return clientHost.Dial(target) }}
	return n, c, o, cat
}

func TestGetCompletes(t *testing.T) {
	_, c, o, cat := testSetup(t)
	site := &cat.Sites[0]
	res := c.Get(o.Addr(), site.Path, false)
	if !res.Complete() {
		t.Fatalf("incomplete: %+v", res)
	}
	if res.BytesGot < int64(site.PageBytes) {
		t.Fatalf("got %d bytes, want >= %d", res.BytesGot, site.PageBytes)
	}
	if res.TTFB <= 0 || res.TTFB > res.Total {
		t.Fatalf("TTFB %v vs total %v", res.TTFB, res.Total)
	}
	if res.Fraction() != 1 {
		t.Fatalf("fraction %v", res.Fraction())
	}
}

func TestGetTTFBReflectsLatency(t *testing.T) {
	_, c, o, cat := testSetup(t)
	res := c.Get(o.Addr(), cat.Sites[0].Path, false)
	rtt := geo.RTT(geo.London, geo.Frankfurt)
	// TTFB ≥ dial RTT + request/response RTT.
	if res.TTFB < 2*rtt-rtt/2 {
		t.Fatalf("TTFB %v implausibly small vs RTT %v", res.TTFB, rtt)
	}
}

func TestGet404(t *testing.T) {
	_, c, o, _ := testSetup(t)
	res := c.Get(o.Addr(), "/nothing", false)
	if res.Status != 404 || res.Complete() {
		t.Fatalf("res = %+v", res)
	}
}

func TestGetDialFailure(t *testing.T) {
	_, c, _, _ := testSetup(t)
	res := c.Get("nowhere:80", "/x", false)
	if res.Err == nil || !res.Failed() {
		t.Fatalf("res = %+v", res)
	}
}

func TestDownloadFile(t *testing.T) {
	_, c, o, _ := testSetup(t)
	res := c.DownloadFile(o.Addr(), 50_000)
	if !res.Complete() || res.BytesGot != 50_000 {
		t.Fatalf("res = %+v", res)
	}
}

func TestTimeoutYieldsPartial(t *testing.T) {
	n := netem.New(netem.WithSeed(4))
	t.Cleanup(n.Clock().Shutdown)
	// A slow origin link so the download cannot finish in time.
	server := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.Frankfurt, UplinkBps: 50 << 10})
	clientHost := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.London})
	o, err := web.StartOrigin(server, 80)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{
		Net:     n,
		Dial:    func(target string) (net.Conn, error) { return clientHost.Dial(target) },
		Timeout: 3 * time.Second, // virtual
	}
	res := c.DownloadFile(o.Addr(), 1<<20) // 1 MiB at 50 KB/s needs ~20 s
	if res.Complete() {
		t.Fatalf("download should have timed out: %+v", res)
	}
	if res.Failed() {
		t.Fatalf("expected partial download, got %+v (got=%d)", res, res.BytesGot)
	}
	if f := res.Fraction(); f <= 0 || f >= 1 {
		t.Fatalf("fraction %v out of (0,1)", f)
	}
}

// TestDownloadFileResumed kills the first leg partway and checks the
// client finishes the file via ?from= legs: full byte count, one resume
// counted, first-leg TTFB preserved.
func TestDownloadFileResumed(t *testing.T) {
	n := netem.New(netem.WithSeed(4))
	t.Cleanup(n.Clock().Shutdown)
	server := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.Frankfurt})
	clientHost := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.London})
	o, err := web.StartOrigin(server, 80)
	if err != nil {
		t.Fatal(err)
	}

	legs := 0
	c := &Client{Net: n, Dial: func(target string) (net.Conn, error) {
		conn, err := clientHost.Dial(target)
		if err != nil {
			return nil, err
		}
		legs++
		if legs == 1 {
			// First leg dies after ~20 KB (headers included), as a
			// circuit dies mid-transfer.
			return streamtest.Alter(conn, func(got, want int) int { return min(want, 20_000-got) }), nil
		}
		return conn, nil
	}}

	res := c.DownloadFileResumed(o.Addr(), 50_000, 4)
	if !res.Complete() || res.BytesGot != 50_000 {
		t.Fatalf("resumed download incomplete: %+v", res)
	}
	if res.Resumes != 1 || legs != 2 {
		t.Fatalf("resumes=%d legs=%d, want 1 resume over 2 legs", res.Resumes, legs)
	}
	if res.TTFB <= 0 || res.TTFB > res.Total {
		t.Fatalf("TTFB %v vs total %v", res.TTFB, res.Total)
	}
}

// TestDownloadFileResumedGivesUp: a dialer that always cuts exhausts
// maxResumes and reports a partial, failed transfer — never a hang.
func TestDownloadFileResumedGivesUp(t *testing.T) {
	n := netem.New(netem.WithSeed(4))
	t.Cleanup(n.Clock().Shutdown)
	server := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.Frankfurt})
	clientHost := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.London})
	o, err := web.StartOrigin(server, 80)
	if err != nil {
		t.Fatal(err)
	}

	c := &Client{Net: n, Dial: func(target string) (net.Conn, error) {
		conn, err := clientHost.Dial(target)
		if err != nil {
			return nil, err
		}
		return streamtest.Alter(conn, func(got, want int) int { return min(want, 5_000-got) }), nil
	}}
	res := c.DownloadFileResumed(o.Addr(), 1_000_000, 3)
	if res.Complete() {
		t.Fatalf("always-cut download reported complete: %+v", res)
	}
	if res.Resumes != 3 {
		t.Fatalf("resumes = %d, want the cap 3", res.Resumes)
	}
	if res.BytesGot <= 0 || res.BytesGot >= 1_000_000 {
		t.Fatalf("BytesGot = %d, want a partial count", res.BytesGot)
	}
}

func TestBrowseLoadsAllResources(t *testing.T) {
	_, c, o, cat := testSetup(t)
	site := &cat.Sites[1]
	pr := c.Browse(o.Addr(), site.Path, 6)
	if !pr.OK {
		t.Fatalf("browse failed: %+v", pr)
	}
	if pr.ResourcesLoaded != len(site.Resources) {
		t.Fatalf("loaded %d of %d", pr.ResourcesLoaded, len(site.Resources))
	}
	if pr.PageLoadTime <= 0 || pr.SpeedIndex <= 0 {
		t.Fatal("missing metrics")
	}
	if pr.SpeedIndex > pr.PageLoadTime {
		t.Fatalf("speed index %v exceeds PLT %v", pr.SpeedIndex, pr.PageLoadTime)
	}
	curl := c.Get(o.Addr(), site.Path, false)
	if pr.PageLoadTime <= curl.Total {
		t.Fatalf("browser PLT %v should exceed curl time %v", pr.PageLoadTime, curl.Total)
	}
}

func TestBrowseParallelismHelps(t *testing.T) {
	_, c, o, cat := testSetup(t)
	// Pick the site with the most resources for a clear effect.
	best := 0
	for i := range cat.Sites {
		if len(cat.Sites[i].Resources) > len(cat.Sites[best].Resources) {
			best = i
		}
	}
	site := &cat.Sites[best]
	serial := c.Browse(o.Addr(), site.Path, 1)
	parallel := c.Browse(o.Addr(), site.Path, 6)
	if !serial.OK || !parallel.OK {
		t.Fatalf("serial=%+v parallel=%+v", serial.Err, parallel.Err)
	}
	if parallel.PageLoadTime >= serial.PageLoadTime {
		t.Fatalf("6 conns (%v) should beat 1 conn (%v)", parallel.PageLoadTime, serial.PageLoadTime)
	}
}

func TestSpeedIndexProperties(t *testing.T) {
	// SI of a single event equals its time; SI is bounded by PLT; SI is
	// monotone when mass shifts earlier.
	one := []LoadEvent{{At: 3 * time.Second, Weight: 1}}
	if got := SpeedIndex(one); got != 3*time.Second {
		t.Fatalf("single event SI = %v", got)
	}
	early := []LoadEvent{{At: time.Second, Weight: 0.9}, {At: 10 * time.Second, Weight: 0.1}}
	late := []LoadEvent{{At: time.Second, Weight: 0.1}, {At: 10 * time.Second, Weight: 0.9}}
	if SpeedIndex(early) >= SpeedIndex(late) {
		t.Fatal("earlier visual mass must lower SI")
	}

	f := func(times []uint32, weights []uint8) bool {
		n := len(times)
		if len(weights) < n {
			n = len(weights)
		}
		if n == 0 {
			return true
		}
		evs := make([]LoadEvent, n)
		var plt time.Duration
		for i := 0; i < n; i++ {
			at := time.Duration(times[i]%100_000) * time.Millisecond
			evs[i] = LoadEvent{At: at, Weight: float64(weights[i]%100) + 1}
			if at > plt {
				plt = at
			}
		}
		si := SpeedIndex(evs)
		return si >= 0 && si <= plt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedIndexEmpty(t *testing.T) {
	if SpeedIndex(nil) != 0 {
		t.Fatal("empty events should yield 0")
	}
}

func TestResultClassificationInvariants(t *testing.T) {
	// Exactly one of Complete/Partial/Failed holds for any outcome.
	f := func(status uint8, wanted, got int64) bool {
		r := Result{
			Status:      int(status),
			BytesWanted: wanted % 1e9,
			BytesGot:    got % 1e9,
		}
		if r.BytesWanted < 0 {
			r.BytesWanted = -r.BytesWanted
		}
		if r.BytesGot < 0 {
			r.BytesGot = -r.BytesGot
		}
		states := 0
		if r.Complete() {
			states++
		}
		if !r.Complete() && !r.Failed() { // partial
			states++
		}
		if r.Failed() {
			states++
		}
		if states != 1 {
			return false
		}
		fr := r.Fraction()
		return fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionOfCompleteIsOne(t *testing.T) {
	r := Result{Status: 200, BytesWanted: 100, BytesGot: 100}
	if !r.Complete() || r.Fraction() != 1 {
		t.Fatalf("complete result misclassified: %+v", r)
	}
	zero := Result{Status: 200, BytesWanted: 0, BytesGot: 0}
	if !zero.Complete() {
		t.Fatal("empty body with 200 is a complete fetch")
	}
}

// TestGetContentLength: a response header must declare its length as a
// non-negative number; one that declares none is malformed, its length
// unknown and its body not complete, with nothing made room for.
func TestGetContentLength(t *testing.T) {
	for _, tc := range []struct {
		name, response string
		wantErr        bool
		wanted         int64
		complete       bool
		body           string
	}{
		{"declared", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", false, 5, true, "hello"},
		{"zero", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", false, 0, true, ""},
		{"absent", "HTTP/1.1 200 OK\r\nServer: x\r\n\r\nhello", true, -1, false, ""},
		{"negative", "HTTP/1.1 200 OK\r\nContent-Length: -7\r\n\r\nhello", true, -1, false, ""},
		{"not a number", "HTTP/1.1 200 OK\r\nContent-Length: five\r\n\r\nhello", true, -1, false, ""},
		{"overflowing", "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\nhello", true, -1, false, ""},
		{"short body", "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhello", true, 9, false, "hello"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netem.New()
			t.Cleanup(n.Clock().Shutdown)
			l, _ := n.MustAddHost(netem.HostConfig{Name: "origin"}).Listen(80)
			l.Serve(func(c *netem.Conn) { c.TryWrite([]byte(tc.response)); c.CloseWrite() })
			client := n.MustAddHost(netem.HostConfig{Name: "client"})
			c := &Client{Net: n, Dial: func(target string) (net.Conn, error) { return client.Dial(target) }}
			res := c.Get("origin:80", "/x", true)
			if (res.Err != nil) != tc.wantErr {
				t.Fatalf("Err = %v, want an error: %v", res.Err, tc.wantErr)
			}
			if res.BytesWanted != tc.wanted || res.Complete() != tc.complete || string(res.Body) != tc.body {
				t.Fatalf("BytesWanted %d Complete %v Body %q, want %d %v %q",
					res.BytesWanted, res.Complete(), res.Body, tc.wanted, tc.complete, tc.body)
			}
			if tc.wanted < 0 && cap(res.Body) != 0 {
				t.Fatalf("a response of unknown length got a %d-byte body buffer", cap(res.Body))
			}
		})
	}
}
