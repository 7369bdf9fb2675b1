// Package sr exercises the seededrand analyzer: top-level math/rand
// draws are banned; seeded *rand.Rand instances are the legal surface.
package sr

import (
	"math/rand"

	"sandbox/sim"
)

func bad() int {
	rand.Shuffle(3, func(i, j int) {}) // want `top-level rand\.Shuffle draws from the unseeded global source.*\[seededrand\]`
	_ = rand.Float64()                 // want `top-level rand\.Float64`
	return rand.Intn(10)               // want `top-level rand\.Intn`
}

// good draws only from an explicitly seeded generator.
func good(seed int64) int {
	r := sim.NewRand(seed)
	z := rand.NewZipf(r, 1.1, 1, 100)
	return r.Intn(10) + int(z.Uint64())
}

// allowed records why a global draw is tolerable here.
func allowed() int {
	return rand.Int() //simlint:allow seededrand -- non-reproducible jitter for an operator-facing demo
}

// elsewhere builds math/rand's own source: sr is not a simulation
// package, so only the draws above are its business.
func elsewhere(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10)
}
