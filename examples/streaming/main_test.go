package main

func Example() {
	main()
	// Output:
	// obfs4      streamed 12 segments in   12.3s  worst-segment  1.03s  rebuffers 0
	// dnstt      streamed 12 segments in   34.5s  worst-segment  3.16s  rebuffers 0
	// camoufler  streamed 12 segments in 1440.0s  worst-segment  0.00s  rebuffers 12
	//
	// A segment is 4 s of 128 kbit/s audio; fetching one slower than
	// real time forces a rebuffer. Carrier-protocol caps dominate (§4.2).
}
