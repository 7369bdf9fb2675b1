// Package sim is a stub of ptperf/internal/sim for the simlint
// analysistest sandbox: it owns the one random stream type, so it is
// where a rand.New is legal.
package sim

import "math/rand"

type source struct{ state uint64 }

func (s *source) Uint64() uint64  { s.state++; return s.state }
func (s *source) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *source) Seed(seed int64) { s.state = uint64(seed) }

func NewRand(seed int64) *rand.Rand { return rand.New(&source{state: uint64(seed)}) }
