package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/fetch"
	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/obs"
	"ptperf/internal/plot"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
	"ptperf/internal/web"
)

// The probes time the public functions of one layer in a minimal world,
// built and driven from the probe's own goroutine (the world's
// scheduler driver). They run in one fresh child, one after another.

// probeBudget is the host time a probe's three timed batches aim to
// cover together.
const probeBudget = 90 * time.Millisecond

// probeWindow is what the throughput probes move per operation: one
// receive window.
const probeWindow = 128 << 10

// probeWorld is the miniature testbed world the probes build.
var probeWorld = testbed.Options{Seed: 1, ByteScale: 0.06, TrancoN: 4, CBLN: 4}

// probeResult is one probe's reading and the heap objects it allocated
// per operation.
type probeResult struct {
	Value       float64 `json:"value"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// probeSet collects results by metric name.
type probeSet map[string]probeResult

// timeOps grows n until batch(n) takes a third of probeBudget, then
// times three such batches and returns the median host ns per
// operation and the allocations per operation.
func timeOps(batch func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		start := hostNow()
		batch(n)
		took := hostNow().Sub(start)
		if took >= probeBudget/3 || n >= 1<<30 {
			break
		}
		grow := 100.0
		if took > 0 {
			grow = 1.2 * float64(probeBudget/3) / float64(took)
		}
		n = int(float64(n)*min(max(grow, 1.5), 100)) + 1
	}
	var ns []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 3; i++ {
		start := hostNow()
		batch(n)
		ns = append(ns, float64(hostNow().Sub(start))/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(3*n)
}

// perOp records host time per operation in the given unit.
func (ps probeSet) perOp(name string, unit time.Duration, batch func(n int)) {
	ns, allocs := timeOps(batch)
	ps[name] = probeResult{Value: ns / float64(unit), AllocsPerOp: allocs}
}

// mbps records host MB/s for a batch that moves opBytes per operation.
func (ps probeSet) mbps(name string, opBytes int, batch func(n int)) {
	ns, allocs := timeOps(batch)
	ps[name] = probeResult{Value: float64(opBytes) / (1 << 20) / (ns / 1e9), AllocsPerOp: allocs}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runProbes runs the whole suite and prints the results as one JSON
// line.
func runProbes() error {
	ps := probeSet{}
	probeClock(ps)
	probePipes(ps)
	probeTor(ps)
	probeRecordAndSplice(ps)
	probeTransports(ps)
	probeWeb(ps)
	probeCensor(ps)
	probeTestbed(ps)
	probeRender(ps)
	return json.NewEncoder(os.Stdout).Encode(ps)
}

// --- netem ---------------------------------------------------------------

func probeClock(ps probeSet) {
	// A self-re-arming EventAt chain: n inline events, dispatched while
	// the driver sleeps past the last one.
	chain := func(clock *netem.Clock, n int) {
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				clock.EventAt(clock.Now()+time.Microsecond, fire)
			}
		}
		clock.EventAt(clock.Now()+time.Microsecond, fire)
		clock.Sleep(time.Duration(n+1) * time.Microsecond)
	}
	clock := netem.New(netem.WithSeed(1)).Clock()
	ps.perOp("netem.event_ns", time.Nanosecond, func(n int) { chain(clock, n) })

	// The same chain with 10^4 far-future timers pending, so every push
	// and pop walks a deep heap.
	deep := netem.New(netem.WithSeed(1)).Clock()
	for i := 0; i < 10000; i++ {
		deep.EventAt(1000*time.Hour+time.Duration(i)*time.Second, func() {})
	}
	ps.perOp("netem.timer_ns_d10k", time.Nanosecond, func(n int) { chain(deep, n) })

	// Two simulation goroutines alternating Sleep: every wake-up is a
	// park, a dispatch and a goroutine handoff.
	park := netem.New(netem.WithSeed(1)).Clock()
	ps.perOp("netem.park_ns", time.Nanosecond, func(n int) {
		wg := netem.NewWaitGroup(park)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			park.Go(func() {
				defer wg.Done()
				for i := 0; i < n/2+1; i++ {
					park.Sleep(time.Microsecond)
				}
			})
		}
		wg.Wait()
	})

	bucket := netem.NewBucket(100<<20, 0.3)
	var now time.Duration
	ps.perOp("netem.reserve_ns", time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			now = bucket.Reserve(now, 1400)
		}
	})
}

// twoHosts is the smallest network with a conn: a dialer and a
// listener in two cities.
func twoHosts() (n *netem.Network, a *netem.Host, ln *netem.Listener) {
	n = netem.New(netem.WithSeed(1))
	a = n.MustAddHost(netem.HostConfig{Name: "a", Location: geo.Toronto})
	b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.Frankfurt})
	ln, err := b.Listen(80)
	must(err)
	return n, a, ln
}

// countInto returns an inline read sink that adds the bytes it is
// handed to *got and gives pooled buffers back.
func countInto(got *int) func(data []byte, base *[]byte, pool *sync.Pool, err error) {
	return func(data []byte, base *[]byte, pool *sync.Pool, err error) {
		*got += len(data)
		if base != nil && pool != nil {
			pool.Put(base)
		}
	}
}

func dialPair(a *netem.Host, ln *netem.Listener) (client, server *netem.Conn) {
	c, err := a.Dial(ln.Addr().String())
	must(err)
	s, err := ln.Accept()
	must(err)
	return c.(*netem.Conn), s.(*netem.Conn)
}

func probePipes(ps probeSet) {
	// Write then Read on one goroutine, a window's worth at a time.
	for _, size := range []int{1 << 10, 16 << 10} {
		_, a, ln := twoHosts()
		c, s := dialPair(a, ln)
		chunk, in := make([]byte, size), make([]byte, probeWindow)
		name := fmt.Sprintf("netem.pipe_mbps_%dk", size>>10)
		ps.mbps(name, probeWindow, func(n int) {
			for i := 0; i < n; i++ {
				for sent := 0; sent < probeWindow; sent += size {
					_, err := c.Write(chunk)
					must(err)
				}
				_, err := s.ReadFull(in)
				must(err)
			}
		})
	}

	// The same bytes delivered to an inline read sink.
	n, a, ln := twoHosts()
	c, s := dialPair(a, ln)
	got := 0
	s.SetReadSink(countInto(&got))
	chunk := make([]byte, 16<<10)
	ps.mbps("netem.sink_mbps_16k", probeWindow, func(ops int) {
		want := got + ops*probeWindow
		for i := 0; i < ops*probeWindow/len(chunk); i++ {
			_, err := c.Write(chunk)
			must(err)
		}
		for got < want {
			n.Clock().Sleep(10 * time.Millisecond)
		}
	})

	_, a, ln = twoHosts()
	ps.perOp("netem.dial_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			c, s := dialPair(a, ln)
			c.Close()
			s.Close()
		}
	})
}

// --- tor -----------------------------------------------------------------

// torWorld is three relays, a byte source and clients on one host.
type torWorld struct {
	net    *netem.Network
	dir    *tor.Directory
	client *netem.Host
	source string
}

// sourceBytes is what one connection to the source server downloads.
const sourceBytes = 1 << 20

func newTorWorld() *torWorld {
	n := netem.New(netem.WithSeed(1))
	w := &torWorld{net: n, dir: tor.NewDirectory()}
	for i, r := range []struct {
		name  string
		flags tor.Flag
		loc   geo.Location
	}{
		{"guard", tor.FlagGuard | tor.FlagFast, geo.Frankfurt},
		{"middle", tor.FlagFast, geo.London},
		{"exit", tor.FlagExit | tor.FlagFast, geo.NewYork},
	} {
		host := n.MustAddHost(netem.HostConfig{Name: r.name, Location: r.loc})
		_, err := tor.StartRelay(tor.RelayConfig{Name: r.name, Host: host, Directory: w.dir, Flags: r.flags, Seed: int64(i + 1)})
		must(err)
	}
	w.client = n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	srv := n.MustAddHost(netem.HostConfig{Name: "source", Location: geo.NewYork})
	ln, err := srv.Listen(80)
	must(err)
	w.source = "source:80"
	payload := make([]byte, 64<<10)
	n.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.Go(func() {
				defer c.Close()
				for sent := 0; sent < sourceBytes; sent += len(payload) {
					if _, err := c.Write(payload); err != nil {
						return
					}
				}
			})
		}
	})
	return w
}

func (w *torWorld) newClient(seed int64) *tor.Client {
	c, err := tor.NewClient(tor.ClientConfig{Host: w.client, Directory: w.dir, Seed: seed})
	must(err)
	must(c.Preheat())
	return c
}

// download pulls one sourceBytes stream through c.
func (w *torWorld) download(c *tor.Client) {
	s, err := c.Dial(w.source)
	must(err)
	defer s.Close()
	n, err := io.Copy(io.Discard, s)
	if n != sourceBytes {
		panic(fmt.Sprintf("tor stream delivered %d of %d bytes: %v", n, sourceBytes, err))
	}
}

func probeTor(ps probeSet) {
	var cell, back tor.Cell
	cell.CircID, cell.Cmd = 7, tor.CmdRelay
	buf := make([]byte, tor.CellSize)
	ps.perOp("tor.cell_codec_ns", time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			must(back.Decode(cell.Encode(buf)))
		}
	})

	w := newTorWorld()
	c := w.newClient(42)
	ps.perOp("tor.circuit_build_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			c.NewCircuit()
			must(c.Preheat())
		}
	})
	ps.mbps("tor.stream_mbps", sourceBytes, func(n int) {
		for i := 0; i < n; i++ {
			w.download(c)
		}
	})

	// 16 clients pulling at once through the one guard.
	w = newTorWorld()
	clients := make([]*tor.Client, 16)
	for i := range clients {
		clients[i] = w.newClient(int64(100 + i))
	}
	ps.mbps("tor.stream_mbps_c16", len(clients)*sourceBytes, func(n int) {
		for i := 0; i < n; i++ {
			wg := netem.NewWaitGroup(w.net.Clock())
			for _, c := range clients {
				wg.Add(1)
				w.net.Go(func() {
					defer wg.Done()
					w.download(c)
				})
			}
			wg.Wait()
		}
	})
}

// --- pt ------------------------------------------------------------------

func probeRecordAndSplice(ps probeSet) {
	_, a, ln := twoHosts()
	c, s := dialPair(a, ln)
	cfg := pt.RecordConfig{Key: []byte("probe-key"), MaxPadding: 64, Seed: 1}
	cfg.IsClient = true
	wr, err := pt.NewRecordConn(c, cfg)
	must(err)
	cfg.IsClient = false
	rd, err := pt.NewRecordConn(s, cfg)
	must(err)
	chunk, in := make([]byte, 16<<10), make([]byte, probeWindow)
	ps.mbps("pt.record_mbps", probeWindow, func(n int) {
		for i := 0; i < n; i++ {
			for sent := 0; sent < probeWindow; sent += len(chunk) {
				_, err := wr.Write(chunk)
				must(err)
			}
			_, err := io.ReadFull(rd, in)
			must(err)
		}
	})

	// client -> relay host running pt.Splice -> sink.
	n := netem.New(netem.WithSeed(1))
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	mid := n.MustAddHost(netem.HostConfig{Name: "mid", Location: geo.Frankfurt})
	sink := n.MustAddHost(netem.HostConfig{Name: "sink", Location: geo.Frankfurt})
	midLn, err := mid.Listen(80)
	must(err)
	sinkLn, err := sink.Listen(80)
	must(err)
	got := 0
	n.Go(func() {
		conn, err := sinkLn.Accept()
		must(err)
		conn.(*netem.Conn).SetReadSink(countInto(&got))
	})
	n.Go(func() {
		in, err := midLn.Accept()
		must(err)
		out, err := mid.Dial("sink:80")
		must(err)
		pt.Splice(n.Clock(), in, out)
	})
	up, err := client.Dial("mid:80")
	must(err)
	ps.mbps("pt.splice_mbps", probeWindow, func(ops int) {
		want := got + ops*probeWindow
		for i := 0; i < ops*probeWindow/len(chunk); i++ {
			_, err := up.Write(chunk)
			must(err)
		}
		for got < want {
			n.Clock().Sleep(10 * time.Millisecond)
		}
	})
}

// probeTransports times, in one testbed world and one method after
// another, bringing the method's deployment up and one bulk download
// through it. Tor is common to every row, so differences between rows
// are what the transport costs.
func probeTransports(ps probeSet) {
	w, err := testbed.New(probeWorld)
	must(err)
	for _, name := range allMethods() {
		var ms0, ms1, ms2 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := hostNow()
		d, err := w.Deployment(name)
		must(err)
		must(d.Preheat())
		up := hostNow().Sub(start)
		runtime.ReadMemStats(&ms1)
		ps["pt."+name+".preheat_ms"] = probeResult{Value: ms(up), AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs)}

		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: fetch.FileTimeout}
		start = hostNow()
		res := c.DownloadFile(w.Origin.Addr(), w.Bytes(5<<20))
		took := hostNow().Sub(start)
		runtime.ReadMemStats(&ms2)
		if res.BytesGot == 0 {
			panic(fmt.Sprintf("probe download through %s moved no bytes: %v", name, res.Err))
		}
		mb := float64(res.BytesGot) / (1 << 20)
		ps["pt."+name+".download_ms_per_mb"] = probeResult{Value: ms(took) / mb, AllocsPerOp: float64(ms2.Mallocs-ms1.Mallocs) / mb}
		d.FreshCircuit()
	}
}

// --- web, fetch ----------------------------------------------------------

func probeWeb(ps probeSet) {
	n := netem.New(netem.WithSeed(1))
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	host := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.NewYork})
	cat := web.GenerateCatalog(web.Tranco, 4, 1, 0.06)
	o, err := web.StartOrigin(host, 80, cat)
	must(err)
	c := &fetch.Client{Net: n, Dial: func(target string) (net.Conn, error) { return client.Dial(target) }}

	const fileBytes = 1 << 20
	ps.mbps("web.serve_mbps", fileBytes, func(n int) {
		for i := 0; i < n; i++ {
			if res := c.DownloadFile(o.Addr(), fileBytes); !res.Complete() {
				panic(fmt.Sprintf("direct download: %v", res.Err))
			}
		}
	})
	ps.perOp("web.page_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			if res := c.Get(o.Addr(), cat.Sites[i%len(cat.Sites)].Path, false); !res.Complete() {
				panic(fmt.Sprintf("direct page fetch: %v", res.Err))
			}
		}
	})
	ps.perOp("fetch.browse_ms", time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			if pr := c.Browse(o.Addr(), cat.Sites[i%len(cat.Sites)].Path, 6); !pr.OK {
				panic(fmt.Sprintf("direct browse: %v", pr.Err))
			}
		}
	})
}

// --- censor --------------------------------------------------------------

func probeCensor(ps probeSet) {
	n := netem.New(netem.WithSeed(1))
	sc, err := censor.Lookup("throttle-surge")
	must(err)
	c := censor.Attach(n, sc, 1, 0.06)
	n.Clock().Sleep(6 * time.Second) // the throttle starts at t=5s
	flow := netem.Flow{Src: "client:40001", Dst: "guard-0:9001"}
	ps.perOp("censor.filter_ns", time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			if v := c.FilterSegment(flow, 1400); v.Shaper == nil {
				panic("throttle-surge did not throttle the client's segment")
			}
		}
	})
}

// --- testbed, sim, obs, stats, plot ----------------------------------------

func probeTestbed(ps probeSet) {
	var registered int
	ps.perOp("testbed.world_build_ms", time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			w, err := testbed.New(probeWorld)
			must(err)
			registered = w.Net.Clock().Registered()
		}
	})
	ps["testbed.goroutines_per_world"] = probeResult{Value: float64(registered)}
}

func probeRender(ps probeSet) {
	exec := sim.NewExecutor(1)
	ps.perOp("sim.submit_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sim.Submit(exec, func() (int, error) { return i, nil }).Wait(); err != nil {
				panic(err)
			}
		}
	})

	ps.perOp("obs.digest_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			obs.CellDigest("curl", probeWorld, "metrics=0s sequential=false sites=4 repeats=1")
		}
	})

	dir, err := os.MkdirTemp(outDir, "probe-cache-")
	must(err)
	defer os.RemoveAll(dir)
	cache, err := obs.OpenCache(dir)
	must(err)
	rng := rand.New(rand.NewSource(1))
	xs, ys := make([]float64, 1000), make([]float64, 1000)
	for i := range xs {
		xs[i], ys[i] = rng.ExpFloat64(), rng.ExpFloat64()
	}
	value, err := json.Marshal(map[string][]float64{"tor": xs, "obfs4": ys})
	must(err)
	entry := &obs.Entry{Key: "curl", Digest: obs.CellDigest("curl", probeWorld, "probe"), Value: value}
	ps.perOp("obs.cache_store_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			must(cache.Store(entry))
		}
	})
	ps.perOp("obs.cache_load_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := cache.Load(entry.Digest); !ok {
				panic("cache entry just stored did not load")
			}
		}
	})

	ps.perOp("stats.summarize_us_n1k", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			stats.Summarize(xs)
		}
	})
	ps.perOp("stats.pairedt_us_n1k", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := stats.PairedT(xs, ys); err != nil {
				panic(err)
			}
		}
	})
	var boxes []plot.Box
	var series []plot.Series
	for i, name := range allMethods() {
		boxes = append(boxes, plot.Box{Label: name, Stats: stats.Summarize(xs[i*50 : i*50+50])})
		series = append(series, plot.Series{Label: name, Values: xs[i*50 : i*50+50]})
	}
	ps.perOp("plot.boxes_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			plot.Boxes(io.Discard, "probe", boxes, 64, false)
		}
	})
	ps.perOp("plot.ecdf_us", time.Microsecond, func(n int) {
		for i := 0; i < n; i++ {
			plot.ECDF(io.Discard, "probe", series, 64, 12)
		}
	})
}
