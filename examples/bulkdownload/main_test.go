package main

func Example() {
	main()
	// Output:
	// size              obfs4    camoufler
	// 5MB                5.1s        46.6s
	// 10MB               8.4s        88.7s
	// 20MB              15.5s       37%/to
	//
	// camoufler pays the IM provider's per-account message rate limit on
	// every chunk; obfs4 is only bounded by the circuit's bandwidth (§4.3).
}
