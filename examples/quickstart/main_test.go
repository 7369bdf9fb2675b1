package main

func Example() {
	main()
	// Output:
	// tor    fetched /site/tranco/0 (3818 bytes): TTFB 1.36s, total 1.39s
	// obfs4  fetched /site/tranco/0 (3818 bytes): TTFB 0.88s, total 0.90s
	//
	// Both paths traverse a full 3-hop onion circuit; obfs4 adds its
	// handshake and record framing but uses a less-utilized bridge as guard.
}
