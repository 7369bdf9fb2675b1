package main

func Example() {
	main()
	// Output:
	// method        median     mean      max
	// tor            1.16s    1.16s    1.18s
	// obfs4          1.21s    1.21s    1.24s
	// webtunnel      1.04s    1.04s    1.06s
	// cloak          1.41s    1.41s    1.44s
	// dnstt          4.59s    4.69s    5.65s
	// camoufler      4.03s    4.00s    4.30s
	// marionette    16.26s   16.21s   26.70s
	//
	// Expected shape (paper §4.2): obfs4/webtunnel/cloak near vanilla Tor;
	// dnstt limited by DNS response sizes; camoufler by IM rate limits;
	// marionette slowest (automaton-paced cover traffic).
}
