// Website-access comparison: a miniature Figure 2a. Measures curl-style
// access time for several transports across a small site sample and
// prints per-method summaries, reproducing the paper's ordering
// (fully-encrypted/proxy-layer fast, mimicry/tunneling constrained,
// marionette slowest).
package main

import (
	"fmt"
	"log"

	"ptperf/internal/fetch"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
)

func main() {
	world, err := testbed.New(testbed.Options{
		Seed:      11,
		ByteScale: 0.125,
		TrancoN:   6, CBLN: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	methods := []string{"tor", "obfs4", "webtunnel", "cloak", "dnstt", "camoufler", "marionette"}
	fmt.Printf("%-11s %8s %8s %8s\n", "method", "median", "mean", "max")
	for _, method := range methods {
		dep, err := world.Deployment(method)
		if err != nil {
			log.Fatal(err)
		}
		if err := dep.Preheat(); err != nil {
			log.Fatal(err)
		}
		client := &fetch.Client{Net: world.Net, Dial: dep.Dial}
		var xs []float64
		for _, site := range world.Tranco.Sites {
			res := client.Get(world.Origin.Addr(), site.Path, false)
			xs = append(xs, res.Total.Seconds())
		}
		for _, site := range world.CBL.Sites {
			res := client.Get(world.Origin.Addr(), site.Path, false)
			xs = append(xs, res.Total.Seconds())
		}
		b := stats.Summarize(xs)
		fmt.Printf("%-11s %7.2fs %7.2fs %7.2fs\n", method, b.Median, b.Mean, b.Max)
	}
	fmt.Println("\nExpected shape (paper §4.2): obfs4/webtunnel/cloak near vanilla Tor;")
	fmt.Println("dnstt limited by DNS response sizes; camoufler by IM rate limits;")
	fmt.Println("marionette slowest (automaton-paced cover traffic).")
}
