// Scenariosweep: run the same website accesses for two transports under
// three censor scenarios — clean, a mid-run bandwidth throttle, and an
// endpoint block — and print how each transport's access time and
// reliability respond. This is the censor subsystem (internal/censor)
// driven directly through testbed.Options.Scenario; `ptperf -exp sweep`
// runs the full {transports} × {scenarios} matrix with statistics.
package main

import (
	"fmt"
	"log"

	"ptperf/internal/censor"
	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
)

func main() {
	transports := []string{"tor", "obfs4"}
	for _, scenario := range []string{"clean", "throttle-surge", "bridge-block"} {
		sc, err := censor.Lookup(scenario)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== scenario %q — %s ===\n", sc.Name, sc.Description)

		// Same seed for every scenario: topology, catalogs and relay
		// draws are identical, so differences are the interference.
		world, err := testbed.New(testbed.Options{
			Seed:      7,
			ByteScale: 0.125,
			TrancoN:   6, CBLN: 6,
			Scenario: scenario,
		})
		if err != nil {
			log.Fatal(err)
		}

		for _, method := range transports {
			dep, err := world.Deployment(method)
			if err != nil {
				log.Fatal(err)
			}
			// Under blocking, the preheat itself may fail; accesses
			// then record the failure.
			_ = dep.Preheat()
			client := &fetch.Client{Net: world.Net, Dial: dep.Dial}
			ok, failed := 0, 0
			var total float64
			for _, site := range world.Tranco.Sites {
				res := client.Get(world.Origin.Addr(), site.Path, false)
				if res.Complete() {
					ok++
					total += res.Total.Seconds()
				} else {
					failed++
				}
			}
			mean := 0.0
			if ok > 0 {
				mean = total / float64(ok)
			}
			fmt.Printf("  %-6s %d ok, %d failed, mean access %.2fs (virtual)\n",
				method, ok, failed, mean)
		}
		if world.Censor != nil {
			st := world.Censor.Stats()
			fmt.Printf("  censor: blocked-dials=%d flows-cut=%d throttled-segments=%d\n\n",
				st.BlockedDials, st.FlowsCut, st.ThrottledSegments)
		}
		// One world per scenario: end each before building the next.
		world.Close()
	}
	fmt.Println("The throttle slows every access; the block kills obfs4's pinned")
	fmt.Println("bridge while vanilla Tor fails over to an unblocked guard.")
}
