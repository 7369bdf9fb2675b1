package plot

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFixed fails t unless AppendFixed matches strconv.AppendFloat for
// x at prec, appended after a prefix that must survive.
func checkFixed(t *testing.T, x float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("ab"), x, 'f', prec, 64)
	got := AppendFixed([]byte("ab"), x, prec)
	if string(got) != string(want) {
		t.Fatalf("AppendFixed(%v [%#016x], %d) = %q, strconv gives %q", x, math.Float64bits(x), prec, got, want)
	}
}

func TestAppendFixedMatchesStrconv(t *testing.T) {
	values := []float64{
		// Ties in decimal that are not ties in binary, and exact ties.
		0.125, 2.675, 0.005, 1.005, 0.015, 0.5, 1.5, 2.5, 0.25, 0.375,
		// Carries through every digit.
		9.995, 99.995, 999.9995, 9.5, 0.9995, 0.095,
		math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		1e-9, 1e15, 5e-324, math.MaxFloat64, 123.456, 0.001,
	}
	for prec := range fixedPow10 {
		// The fast path ends where |x|·10^prec reaches 2^50.
		bound := math.Ldexp(1, 50) / fixedPow10[prec]
		values = append(values, bound, math.Nextafter(bound, 0), math.Nextafter(bound, math.Inf(1)))
	}
	for _, x := range values {
		for prec := 0; prec <= 5; prec++ {
			checkFixed(t, x, prec)
			checkFixed(t, -x, prec)
		}
	}

	// Drawn values: the range reports print, values on and next to every
	// precision's rounding ties, magnitudes from 1e-6 to 1e6, and raw bit
	// patterns, which reach subnormals, huge exponents and NaN payloads.
	rng := rand.New(rand.NewSource(1))
	const draws = 1_000_000
	for i := 0; i < draws; i++ {
		var x float64
		prec := i % len(fixedPow10)
		switch i / len(fixedPow10) % 4 {
		case 0:
			x = rng.Float64() * 1000
		case 1:
			p := fixedPow10[prec]
			x = float64(rng.Intn(1_000_000))/p + float64(rng.Intn(3)-1)*0.5/p
		case 2:
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		case 3:
			x = math.Float64frombits(rng.Uint64())
		}
		checkFixed(t, x, prec)
		checkFixed(t, -x, prec)
	}
}

func TestAppendFixedAllocFree(t *testing.T) {
	buf := make([]byte, 0, 32)
	x := 2.675
	if n := testing.AllocsPerRun(100, func() { buf = AppendFixed(buf[:0], x, 2) }); n != 0 {
		t.Fatalf("AppendFixed into a sized buffer: %v allocs, want 0", n)
	}
}

// TestAppendPaddedMatchesFmt holds the padded form to fmt's %*.Nf, with
// a negative width for %-*.Nf.
func TestAppendPaddedMatchesFmt(t *testing.T) {
	for _, x := range []float64{0, 1, -2.675, 12345.678, math.NaN(), math.Inf(-1)} {
		for _, width := range []int{-12, -4, -1, 0, 1, 4, 12} {
			for prec := 0; prec <= 3; prec++ {
				want := fmt.Sprintf("ab%*.*f", width, prec, x)
				if got := appendPadded([]byte("ab"), x, prec, width); string(got) != want {
					t.Fatalf("appendPadded(%v, %d, %d) = %q, fmt gives %q", x, prec, width, got, want)
				}
			}
		}
	}
}

func FuzzAppendFixed(f *testing.F) {
	for _, x := range []float64{0.125, 2.675, 9.995, 999.9995, math.Copysign(0, -1), math.Inf(1), 1e15} {
		f.Add(x, uint8(2))
	}
	f.Fuzz(func(t *testing.T, x float64, prec uint8) {
		checkFixed(t, x, int(prec%6))
	})
}
