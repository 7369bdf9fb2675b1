package sim

import "math/rand"

// Seed streams. Every world task derives its world seed from the
// campaign seed plus a stream path via DeriveSeed, and every draw
// inside a world comes from a NewRand over a seed offset from it
// (DESIGN.md "Seed streams", "Random streams").

// splitmix64Gamma is the Weyl-sequence increment of splitmix64.
const splitmix64Gamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output finalizer: a bijective avalanche over
// 64 bits, so distinct inputs never collide and near-equal inputs
// produce uncorrelated outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed derives the seed of one task stream from a root seed and a
// stream path (experiment id, cell index, repeat, ...). Equal
// (root, path) pairs always derive the same seed; any change to the
// root or any path element yields an independent stream. The result is
// never 0, so it survives "0 means default" seed plumbing.
func DeriveSeed(root int64, path ...int64) int64 {
	x := mix64(uint64(root) + splitmix64Gamma)
	for _, p := range path {
		x = mix64(x + uint64(p)*splitmix64Gamma + splitmix64Gamma)
	}
	if x == 0 {
		x = splitmix64Gamma
	}
	return int64(x)
}

// splitmix64 is the one random stream of a simulated world: a Weyl
// sequence through mix64, eight bytes of state, no seeding loop. A
// connection that draws a handful of jitter values pays for those
// draws and nothing else.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.state += splitmix64Gamma
	return mix64(s.state)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = mix64(uint64(seed)) }

// Source is the stream a NewRand draws from, as a value. A struct that
// keeps one inline, beside the generator's value (*RandOn(&s.src)),
// pays no object for its stream.
type Source = splitmix64

// NewSource returns the stream NewRand(seed) draws from.
func NewSource(seed int64) Source { return Source{state: mix64(uint64(seed))} }

// RandOn returns a generator drawing from src. It is how a simulation
// package builds one over an inline Source: simlint's seededrand rule
// keeps rand.New out of them.
func RandOn(src *Source) *rand.Rand { return rand.New(src) }

// NewRand returns the generator every in-world draw comes from. The
// seed goes through mix64 once, so the additive neighbours in use
// (cfg.Seed+3, seed+1) start at unrelated points of the Weyl sequence.
func NewRand(seed int64) *rand.Rand {
	s := NewSource(seed)
	return RandOn(&s)
}
