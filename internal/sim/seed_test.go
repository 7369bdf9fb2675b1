package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestSplitmix64Vectors holds the raw source to the published
// splitmix64 outputs. mix64(0) is 0, so NewRand(0) starts at state 0
// and the first vector is checked through the constructor as well.
func TestSplitmix64Vectors(t *testing.T) {
	fromZero := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for _, tc := range []struct {
		src  rand.Source64
		name string
		want []uint64
	}{
		{&splitmix64{state: 0}, "state 0", fromZero},
		{&splitmix64{state: 1234567}, "state 1234567", []uint64{6457827717110365317, 3203168211198807973}},
		{NewRand(0), "NewRand(0)", fromZero},
	} {
		for i, want := range tc.want {
			if got := tc.src.Uint64(); got != want {
				t.Errorf("%s, draw %d: %#x, want %#x", tc.name, i, got, want)
			}
		}
	}
	// Int63 is the top 63 bits of the same draw, and Seed restarts it.
	rng := NewRand(9)
	rng.Seed(0)
	if got := rng.Int63(); got != int64(fromZero[0]>>1) {
		t.Errorf("Int63 after Seed(0) = %#x", got)
	}
}

// TestNeighbourSeedsDisagree: the seeds in use differ by small
// constants (cfg.Seed+3, a conn pair's seed and seed+1), and their
// streams must still be unrelated.
func TestNeighbourSeedsDisagree(t *testing.T) {
	const n = 1000
	for _, s := range []int64{0, 1, 42, -7, 1 << 40} {
		var draws [3][n]int
		for k := range draws {
			rng := NewRand(s + int64(k))
			for i := range draws[k] {
				draws[k][i] = rng.Intn(256)
			}
		}
		for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
			differ := 0
			for i := 0; i < n; i++ {
				if draws[pair[0]][i] != draws[pair[1]][i] {
					differ++
				}
			}
			if differ < n*99/100 {
				t.Errorf("seeds %d and %d agree in %d of %d draws", s+int64(pair[0]), s+int64(pair[1]), n-differ, n)
			}
		}
	}
}

var sinkRand *rand.Rand

// TestNewRandIsSmall: a generator is a rand.Rand and eight bytes of
// state, so a connection can afford one of its own.
func TestNewRandIsSmall(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { sinkRand = NewRand(7) }); got > 2 {
		t.Errorf("NewRand allocates %v objects, want at most 2", got)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkRand = NewRand(int64(i))
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > 64 {
		t.Errorf("NewRand allocates %d B, want at most 64", got)
	}
}

// TestSourceDrawsWhatNewRandDraws: a generator over an inline Source
// draws what NewRand's does.
func TestSourceDrawsWhatNewRandDraws(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		src := NewSource(seed)
		inline, ref := RandOn(&src), NewRand(seed)
		for i := 0; i < 100; i++ {
			if a, b := inline.Int63n(1e9), ref.Int63n(1e9); a != b {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, a, b)
			}
			if a, b := inline.Float64(), ref.Float64(); a != b {
				t.Fatalf("seed %d draw %d: %v, want %v", seed, i, a, b)
			}
		}
	}
}

func BenchmarkNewRand(b *testing.B) {
	b.Run("splitmix64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRand = NewRand(int64(i))
		}
	})
	// What every conn end, padded codec and handshake built before.
	b.Run("mathrand-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRand = rand.New(rand.NewSource(int64(i)))
		}
	})
}
