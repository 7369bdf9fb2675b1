package main

func Example() {
	main()
	// Output:
	// === scenario "clean" — no interference: the baseline every scenario is compared against ===
	//   tor    6 ok, 0 failed, mean access 1.43s (virtual)
	//   obfs4  6 ok, 0 failed, mean access 0.94s (virtual)
	//   censor: blocked-dials=0 flows-cut=0 throttled-segments=0
	//
	// === scenario "throttle-surge" — client access link throttled to ~1.5 MB/s with congestion delay from t=5s on ===
	//   tor    6 ok, 0 failed, mean access 1.51s (virtual)
	//   obfs4  6 ok, 0 failed, mean access 1.10s (virtual)
	//   censor: blocked-dials=0 flows-cut=0 throttled-segments=353
	//
	// === scenario "bridge-block" — PT bridges, proxy servers, snowflake volunteers and two guards blocked from t=10s; fronted/tunneled rendezvous points stay reachable ===
	//   tor    6 ok, 0 failed, mean access 1.43s (virtual)
	//   obfs4  0 ok, 6 failed, mean access 0.00s (virtual)
	//   censor: blocked-dials=21 flows-cut=0 throttled-segments=0
	//
	// The throttle slows every access; the block kills obfs4's pinned
	// bridge while vanilla Tor fails over to an unblocked guard.
}
