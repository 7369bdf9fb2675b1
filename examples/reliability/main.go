// Reliability demo: a miniature Figure 8 / Section 5.3. Repeatedly
// downloads a file over snowflake while volunteer proxies churn, then
// applies the post-September load scenario and shows the degradation
// the paper measured during the Iran unrest.
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
		Seed:      17,
		ByteScale: 0.03,
		TrancoN:   3, CBLN: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	dep, err := world.Deployment("snowflake")
	if err != nil {
		log.Fatal(err)
	}

	attempt := func(label string) {
		size := world.Bytes(20 << 20)
		complete, partial := 0, 0
		var fractions []float64
		for i := 0; i < 5; i++ {
			dep.FreshCircuit()
			if err := dep.Preheat(); err != nil {
				fractions = append(fractions, 0)
				partial++
				continue
			}
			client := &fetch.Client{Net: world.Net, Dial: dep.Dial, Timeout: 600 * time.Second}
			res := client.DownloadFile(world.Origin.Addr(), size)
			fractions = append(fractions, res.Fraction())
			if res.Complete() {
				complete++
			} else {
				partial++
			}
		}
		fmt.Printf("%-22s complete=%d incomplete=%d fractions=", label, complete, partial)
		for _, f := range fractions {
			fmt.Printf(" %3.0f%%", f*100)
		}
		fmt.Println()
	}

	// Pre-surge: long-lived volunteers, light load.
	dep.Snowflake().SetLoad(0.1, 300*time.Second)
	attempt("pre-September load")

	// Post-surge (§5.3): saturated volunteers that disappear quickly.
	dep.Snowflake().SetLoad(0.85, 15*time.Second)
	attempt("post-September load")

	fmt.Println("\nA proxy dying mid-transfer aborts the tunnel: downloads finish only")
	fmt.Println("partially, which users can mistake for the transport being blocked (§4.6).")
}
