// Bulk-download comparison: a miniature Figure 5. Downloads files of
// growing size through a fast transport (obfs4) and a rate-limited one
// (camoufler), showing how the communication primitive dominates bulk
// performance.
package main

import (
	"fmt"
	"log"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
)

func main() {
	world, err := testbed.New(testbed.Options{
		Seed:      13,
		ByteScale: 0.03, // small files keep the example quick
		TrancoN:   2, CBLN: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	sizesMB := []int{5, 10, 20}
	methods := []string{"obfs4", "camoufler"}

	fmt.Printf("%-10s", "size")
	for _, m := range methods {
		fmt.Printf(" %12s", m)
	}
	fmt.Println()

	for _, mb := range sizesMB {
		size := world.Bytes(mb << 20)
		fmt.Printf("%-10s", fmt.Sprintf("%dMB", mb))
		for _, method := range methods {
			dep, err := world.Deployment(method)
			if err != nil {
				log.Fatal(err)
			}
			if err := dep.Preheat(); err != nil {
				log.Fatal(err)
			}
			client := &fetch.Client{Net: world.Net, Dial: dep.Dial, Timeout: 1200 * time.Second}
			res := client.DownloadFile(world.Origin.Addr(), size)
			if res.Complete() {
				fmt.Printf(" %11.1fs", res.Total.Seconds())
			} else {
				fmt.Printf(" %8.0f%%/to", res.Fraction()*100)
			}
		}
		fmt.Println()
	}
	fmt.Println("\ncamoufler pays the IM provider's per-account message rate limit on")
	fmt.Println("every chunk; obfs4 is only bounded by the circuit's bandwidth (§4.3).")
}
