package ptperf

// One benchmark per table and figure of the paper's evaluation section,
// plus ablations for the design choices called out in DESIGN.md. Each
// benchmark runs the corresponding harness experiment end to end on a
// small campaign; reported metrics are virtual seconds, so shapes are
// comparable to the paper even though the campaign is miniaturized.

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/geo"
	"ptperf/internal/harness"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/pt/camoufler"
	"ptperf/internal/pt/dnstt"
	"ptperf/internal/pt/stegotorus"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/web"
)

// benchConfig is the miniature campaign used by the per-artifact
// benchmarks.
func benchConfig(seed int64) harness.Config {
	return harness.Config{
		Seed:         seed,
		ByteScale:    0.06,
		Sites:        4,
		Repeats:      1,
		FileAttempts: 1,
		FileSizesMB:  []int{5, 10},
	}
}

// runExperiment executes one harness experiment b.N times. Beside the
// timings it reports the scheduler's work per run (Runner.SimStats):
// parks/op, the waits that released the run token, and events/op, the
// inline callbacks run from the timer heap and the run queue. Both are
// exact functions of seed and code, so they hold on any runner.
func runExperiment(b *testing.B, id string, mut func(*harness.Config)) {
	b.Helper()
	var parks, events uint64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(int64(i) + 1)
		if mut != nil {
			mut(&cfg)
		}
		r := harness.New(cfg, io.Discard)
		if err := r.Run(id); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		st := r.SimStats()
		parks += st.Parks
		events += st.Events + st.ReadyEvents
	}
	b.ReportMetric(float64(parks)/float64(b.N), "parks/op")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkTable1Overview(b *testing.B) { runExperiment(b, "table1", nil) }

func BenchmarkFig2aCurlAccess(b *testing.B) { runExperiment(b, "fig2a", nil) }
func BenchmarkFig2bSeleniumAccess(b *testing.B) {
	runExperiment(b, "fig2b", nil)
}
func BenchmarkFig3aFixedCircuit(b *testing.B)     { runExperiment(b, "fig3", nil) }
func BenchmarkFig3bFixedCircuitECDF(b *testing.B) { runExperiment(b, "fig3", nil) }
func BenchmarkFig4FixedGuard(b *testing.B)        { runExperiment(b, "fig4", nil) }
func BenchmarkFig5FileDownload(b *testing.B)      { runExperiment(b, "fig5", nil) }
func BenchmarkFig6TTFB(b *testing.B)              { runExperiment(b, "fig6", nil) }
func BenchmarkFig7Locations(b *testing.B) {
	runExperiment(b, "fig7", func(c *harness.Config) { c.Sites = 3 })
}
func BenchmarkFig8aReliability(b *testing.B)      { runExperiment(b, "fig8", nil) }
func BenchmarkFig8bDownloadFraction(b *testing.B) { runExperiment(b, "fig8", nil) }
func BenchmarkFig9Overhead(b *testing.B) {
	runExperiment(b, "fig9", func(c *harness.Config) { c.Sites = 3 })
}
func BenchmarkFig10SnowflakeLoad(b *testing.B)   { runExperiment(b, "fig10", nil) }
func BenchmarkFig11SpeedIndex(b *testing.B)      { runExperiment(b, "fig11", nil) }
func BenchmarkFig12SnowflakeMonths(b *testing.B) { runExperiment(b, "fig12", nil) }
func BenchmarkTables34PairedTCurl(b *testing.B)  { runExperiment(b, "table3", nil) }
func BenchmarkTables56PairedTSelenium(b *testing.B) {
	runExperiment(b, "table5", nil)
}
func BenchmarkTable7PairedTFile(b *testing.B) { runExperiment(b, "table7", nil) }
func BenchmarkTables89PairedTSpeedIndex(b *testing.B) {
	runExperiment(b, "table8", nil)
}
func BenchmarkTable10CategoryPairs(b *testing.B) { runExperiment(b, "table10", nil) }

// BenchmarkScenarioSweep exercises the censor layer end to end:
// {transports} × {scenarios} with throttling, loss draws, blocking
// cutovers and the snowflake surge timeline. Jobs is pinned to 1 so
// this stays the sequential baseline BenchmarkSweepParallel is
// measured against.
func BenchmarkScenarioSweep(b *testing.B) {
	runExperiment(b, "sweep", func(c *harness.Config) {
		c.Transports = []string{"tor", "obfs4", "meek", "snowflake"}
		c.Jobs = 1
	})
}

// BenchmarkSweepParallel is the same sweep on the multi-world shard
// executor (one world task per scenario cell, -jobs = all cores). The
// report is byte-identical to the sequential run; on a ≥4-core machine
// ns/op should drop ≥2.5× versus BenchmarkScenarioSweep. CI computes
// the ratio from BENCH_results.json.
func BenchmarkSweepParallel(b *testing.B) {
	runExperiment(b, "sweep", func(c *harness.Config) {
		c.Transports = []string{"tor", "obfs4", "meek", "snowflake"}
		c.Jobs = 0 // GOMAXPROCS
	})
}

// BenchmarkContentionSweep exercises the relay cell scheduler end to
// end: the guard-contention family's four load levels plus the FIFO
// baseline cell, with competitor fleets, EWMA priority and KIST-style
// write budgeting all on the virtual clock. Jobs is pinned to 1 so
// ns/op is core-count-independent and the benchdiff ratio gate applies
// to it like any other benchmark (no SweepParallel-style exclusion).
func BenchmarkContentionSweep(b *testing.B) {
	runExperiment(b, "contention", func(c *harness.Config) {
		c.Sites = 2
		c.Jobs = 1
	})
}

// BenchmarkChurnSweep exercises the fault-injection subsystem end to
// end: the churn family's {none,slow,fast} levels across four methods,
// with relay crashes/restarts, link flaps, directory churn, client-side
// retry/backoff/probation and resumable downloads all on the virtual
// clock. Jobs is pinned to 1 so ns/op is core-count-independent and the
// benchdiff ratio gate applies to it like any other benchmark.
func BenchmarkChurnSweep(b *testing.B) {
	runExperiment(b, "churn", func(c *harness.Config) {
		c.Sites = 2
		c.Jobs = 1
	})
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationGuardLoad toggles the volunteer-guard utilization gap
// that explains §4.2.1 (PT bridges beating vanilla Tor). The reported
// metrics are mean selenium page-load times for vanilla Tor with busy
// vs. idle volunteer guards.
func BenchmarkAblationGuardLoad(b *testing.B) {
	measure := func(util [2]float64, seed int64) float64 {
		w, err := testbed.New(testbed.Options{
			Seed: seed, ByteScale: 0.06,
			TrancoN: 3, CBLN: 3,
			GuardUtilization: util,
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := w.Deployment("tor")
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Preheat(); err != nil {
			b.Fatal(err)
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial}
		var xs []float64
		for _, site := range w.Tranco.Sites {
			pr := c.Browse(w.Origin.Addr(), site.Path, 6)
			xs = append(xs, pr.PageLoadTime.Seconds())
		}
		return stats.Mean(xs)
	}
	for i := 0; i < b.N; i++ {
		busy := measure([2]float64{0.7, 0.85}, int64(i)+1)
		idle := measure([2]float64{0.05, 0.1}, int64(i)+1)
		b.ReportMetric(busy, "busy-guard-s")
		b.ReportMetric(idle, "idle-guard-s")
	}
}

// ablationWorld is a two-host micro-world for transport-only ablations:
// client fetches a file straight through the PT (no Tor), isolating the
// design knob under test.
type ablationWorld struct {
	net    *netem.Network
	client *netem.Host
	server *netem.Host
	extra  *netem.Host
	origin *web.Origin
}

func newAblationWorld(b *testing.B, seed int64) *ablationWorld {
	b.Helper()
	n := netem.New(netem.WithSeed(seed))
	w := &ablationWorld{
		net:    n,
		client: n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto}),
		server: n.MustAddHost(netem.HostConfig{Name: "pt-server", Location: geo.Frankfurt}),
		extra:  n.MustAddHost(netem.HostConfig{Name: "aux", Location: geo.Frankfurt}),
	}
	originHost := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.NewYork})
	o, err := web.StartOrigin(originHost, 80)
	if err != nil {
		b.Fatal(err)
	}
	w.origin = o
	return w
}

// fetchThrough measures one bulk fetch through a dialer.
func (w *ablationWorld) fetchThrough(b *testing.B, d pt.Dialer, size int) float64 {
	b.Helper()
	c := &fetch.Client{
		Net: w.net,
		Dial: func(target string) (net.Conn, error) {
			return netem.Await(w.net.Clock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
				return d.DialEvent(target, done)
			})
		},
		Timeout: 600 * time.Second,
	}
	res := c.DownloadFile(w.origin.Addr(), size)
	if !res.Complete() {
		return 600
	}
	return res.Total.Seconds()
}

// BenchmarkAblationDnsttCap compares dnstt's 512-byte response cap with
// an uncapped variant — the knob the paper blames for dnstt's bulk
// behaviour.
func BenchmarkAblationDnsttCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(respCap int, port int) float64 {
			w := newAblationWorld(b, int64(i)*10+int64(port))
			cfg := dnstt.Config{Seed: 3, RespCap: respCap, BudgetMedian: -1}
			srv, err := dnstt.StartServer(w.server, port, cfg, pt.ForwardTo(w.server))
			if err != nil {
				b.Fatal(err)
			}
			res, err := dnstt.StartResolver(w.extra, port+1, cfg, srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			return w.fetchThrough(b, dnstt.NewDialer(w.client, res.Addr(), cfg), 512<<10)
		}
		b.ReportMetric(run(512, 5300), "cap512-s")
		b.ReportMetric(run(16<<10, 5400), "uncapped-s")
	}
}

// BenchmarkAblationCamouflerRate compares the IM provider's API rate
// limit against an effectively unlimited one.
func BenchmarkAblationCamouflerRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(rate float64, port int) float64 {
			w := newAblationWorld(b, int64(i)*10+int64(port))
			cfg := camoufler.Config{Seed: 4, RatePerSec: rate, LossProb: -1}
			im, err := camoufler.StartIMServer(w.extra, port, cfg)
			if err != nil {
				b.Fatal(err)
			}
			proxy, err := camoufler.StartProxy(w.server, im.Addr(), fmt.Sprintf("a%d", port), cfg, pt.ForwardTo(w.server))
			if err != nil {
				b.Fatal(err)
			}
			d := camoufler.NewDialer(w.client, im.Addr(), fmt.Sprintf("a%d", port), cfg, proxy)
			// Large enough that the message rate, not latency, binds.
			return w.fetchThrough(b, d, 2<<20)
		}
		b.ReportMetric(run(camoufler.DefaultRatePerSec, 5222), "rate-limited-s")
		b.ReportMetric(run(10000, 5223), "unlimited-s")
	}
}

// BenchmarkAblationChopperConns sweeps stegotorus's chopper fan-out.
func BenchmarkAblationChopperConns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, conns := range []int{1, 2, 4, 8} {
			w := newAblationWorld(b, int64(i)*100+int64(conns))
			cfg := stegotorus.Config{Seed: 5, Conns: conns}
			srv, err := stegotorus.StartServer(w.server, 8080, cfg, pt.ForwardTo(w.server))
			if err != nil {
				b.Fatal(err)
			}
			d := stegotorus.NewDialer(w.client, srv.Addr(), cfg)
			secs := w.fetchThrough(b, d, 256<<10)
			b.ReportMetric(secs, fmt.Sprintf("conns%d-s", conns))
		}
	}
}
