package main

func Example() {
	main()
	// Output:
	// pre-September load     complete=3 incomplete=2 fractions=  53%  75% 100% 100% 100%
	// post-September load    complete=2 incomplete=3 fractions=  82% 100%   5% 100%  10%
	//
	// A proxy dying mid-transfer aborts the tunnel: downloads finish only
	// partially, which users can mistake for the transport being blocked (§4.6).
}
