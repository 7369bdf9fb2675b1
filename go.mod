module ptperf

// The toolchain must be go 1.23 or later (CI uses 1.24):
// internal/netem/sched.go imports iter behind a go1.23 build tag, and an
// older toolchain skips that file and fails on the missing netem.Clock.
// The line below stays at 1.22 all the same: bench/go.mod requires this
// module and refuses a newer one.
go 1.22
