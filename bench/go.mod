module ptperf/bench

go 1.22

require ptperf v0.0.0

replace ptperf => ../
