// Streaming demo: the paper's future-work use case (§A.4). Emulates an
// audio stream as a sequence of fixed-bitrate segment fetches with a
// playout deadline, and counts rebuffering events per transport. PTs
// whose carrier protocol caps throughput or adds per-message latency
// (dnstt, camoufler) rebuffer; obfs4 plays smoothly.
package main

import (
	"fmt"
	"log"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
)

const (
	segmentSeconds = 4  // media seconds per segment
	segments       = 12 // ~48 s of audio
	bitrateKBps    = 16 // 128 kbit/s audio
)

func main() {
	world, err := testbed.New(testbed.Options{
		Seed:      23,
		ByteScale: 1, // the stream is small; no need to scale it
		TrancoN:   2, CBLN: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	segmentBytes := bitrateKBps * 1024 * segmentSeconds

	for _, method := range []string{"obfs4", "dnstt", "camoufler"} {
		dep, err := world.Deployment(method)
		if err != nil {
			log.Fatal(err)
		}
		if err := dep.Preheat(); err != nil {
			log.Fatal(err)
		}
		client := &fetch.Client{Net: world.Net, Dial: dep.Dial, Timeout: 120 * time.Second}

		// Playout: each segment must arrive within segmentSeconds once
		// playback has started (after a 2-segment startup buffer).
		var rebuffers int
		var worst time.Duration
		start := world.Net.Now()
		for i := 0; i < segments; i++ {
			res := client.DownloadFile(world.Origin.Addr(), segmentBytes)
			if !res.Complete() {
				rebuffers++
				continue
			}
			if res.Total > segmentSeconds*time.Second {
				rebuffers++
			}
			if res.Total > worst {
				worst = res.Total
			}
		}
		total := world.Net.Since(start)
		fmt.Printf("%-10s streamed %2d segments in %6.1fs  worst-segment %5.2fs  rebuffers %d\n",
			method, segments, total.Seconds(), worst.Seconds(), rebuffers)
	}
	fmt.Println("\nA segment is 4 s of 128 kbit/s audio; fetching one slower than")
	fmt.Println("real time forces a rebuffer. Carrier-protocol caps dominate (§4.2).")
}
