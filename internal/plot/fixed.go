package plot

import (
	"math"
	"strconv"
)

// fixedPow10 holds the exact scale 10^prec of each precision the fast
// path of AppendFixed handles.
var fixedPow10 = [...]float64{1, 10, 100, 1000}

// AppendFixed appends x with prec digits after the point and returns
// the extended buffer. The bytes are exactly those of
// strconv.AppendFloat(dst, x, 'f', prec, 64), which formats every such
// call through a multiprecision decimal; reports print thousands of
// cells, so the common case is done in float64 arithmetic instead.
//
// For prec 0–3 and |x|·10^prec below 2^50 it rounds y = fl(|x|·10^prec)
// to an integer n and prints n with a point prec digits from the right.
// The rounding is decided on the exact binary value, half to even,
// which is strconv's rule:
//   - e = FMA(|x|, 10^prec, −y) is the exact rounding error of y, so
//     y + e is |x|·10^prec exactly;
//   - with f = y − ⌊y⌋ (exact, since y < 2^50), the sign of
//     t = (f − 0.5) + e is the sign of the exact fraction minus one
//     half: whenever f ≥ 0.25, f − 0.5 is exact (Sterbenz), and an IEEE
//     sum is zero only when its exact value is, and otherwise keeps its
//     sign; below 0.25, |e| ≤ 2^−4 keeps t negative;
//   - so ⌊y⌋ rounds up when t > 0, or when t == 0 and ⌊y⌋ is odd.
//
// NaN, ±Inf, prec outside 0–3 and larger values go to strconv.
func AppendFixed(dst []byte, x float64, prec int) []byte {
	if prec < 0 || prec >= len(fixedPow10) {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	a, p := math.Abs(x), fixedPow10[prec]
	y := float64(a * p) // rounded, or arm64 fuses it into y - fl and e counts twice
	if !(y < 1<<50) {   // NaN and ±Inf fail this too
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	e := math.FMA(a, p, -y)
	fl := math.Floor(y)
	n := uint64(fl)
	if t := (y - fl - 0.5) + e; t > 0 || (t == 0 && n&1 == 1) {
		n++
	}

	// Fill buf from the right: prec fraction digits, the point, then at
	// least one integer digit and the sign.
	var buf [24]byte
	i := len(buf)
	for k := 0; k < prec; k++ {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	if math.Signbit(x) {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}

// appendPadded appends x as AppendFixed does, padded with spaces to
// width columns: on the left for a positive width (fmt's %*.Nf), on
// the right for a negative one (%-*.Nf). A wider number is not cut.
func appendPadded(dst []byte, x float64, prec, width int) []byte {
	start := len(dst)
	dst = AppendFixed(dst, x, prec)
	n := len(dst) - start
	if width < 0 {
		return appendSpaces(dst, -width-n)
	}
	pad := width - n
	if pad <= 0 {
		return dst
	}
	dst = appendSpaces(dst, pad)
	copy(dst[start+pad:], dst[start:start+n])
	for i := start; i < start+pad; i++ {
		dst[i] = ' '
	}
	return dst
}

// appendSpaces appends n spaces (none when n ≤ 0).
func appendSpaces(dst []byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, ' ')
	}
	return dst
}
