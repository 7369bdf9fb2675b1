// Package stats implements the statistical machinery the paper uses to
// report results: means and standard deviations, paired Student t-tests
// with exact p-values (Tables 3–10), 95% confidence intervals, empirical
// CDFs (Figures 3b, 6, 8b) and five-number box-plot summaries
// (Figures 2, 3a, 5, 7, 10b, 11, 12).
package stats

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (q in [0,1]) with linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantileSorted(sortedCopy(xs), q)
}

// sortedCopy returns an ascending copy of xs; xs itself is not reordered.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted is Quantile over an already sorted, non-empty sample.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Box is a five-number summary plus mean and SD, the contents of one box
// in the paper's box plots.
type Box struct {
	// N is the sample count.
	N int
	// Min and Max are the extreme observations.
	Min, Max float64
	// Q1, Median, Q3 are the quartiles.
	Q1, Median, Q3 float64
	// Mean and SD summarize the distribution's moments.
	Mean, SD float64
}

// Summarize computes a Box for the sample. It sorts one copy of xs and
// reads every quantile from it; the moments sum xs in its own order.
func Summarize(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	s := sortedCopy(xs)
	return Box{
		N:      len(xs),
		Min:    quantileSorted(s, 0),
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    quantileSorted(s, 1),
		Mean:   Mean(xs),
		SD:     StdDev(xs),
	}
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// Load makes e the ECDF of xs, sorting a copy of xs into the array e
// already holds.
func (e *ECDF) Load(xs []float64) {
	e.sorted = append(e.sorted[:0], xs...)
	sort.Float64s(e.sorted)
}

// At returns P(X ≤ x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// InverseAt returns the smallest x with P(X ≤ x) ≥ p.
func (e *ECDF) InverseAt(p float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// TTestResult reports a paired t-test the way the paper's tables do.
type TTestResult struct {
	// N is the number of pairs.
	N int
	// MeanDiff is mean(x−y).
	MeanDiff float64
	// T is the t statistic.
	T float64
	// P is the two-sided p-value.
	P float64
	// CILower and CIUpper bound the 95% confidence interval of the mean
	// difference.
	CILower, CIUpper float64
	// DF is the degrees of freedom.
	DF int
}

// ErrTooFewPairs is returned when fewer than two pairs are supplied.
var ErrTooFewPairs = errors.New("stats: paired t-test needs at least 2 pairs")

// PairedT runs a paired Student t-test on equal-length samples.
func PairedT(x, y []float64) (TTestResult, error) {
	if len(x) != len(y) {
		return TTestResult{}, errors.New("stats: paired samples must have equal length")
	}
	n := len(x)
	if n < 2 {
		return TTestResult{}, ErrTooFewPairs
	}
	// Each pass recomputes x[i]-y[i] in order, giving Mean's and StdDev's bits.
	var sum, ss float64
	for i := range x {
		sum += x[i] - y[i]
	}
	mean := sum / float64(n)
	for i := range x {
		dd := x[i] - y[i] - mean
		ss += float64(dd * dd)
	}
	sd := math.Sqrt(ss / float64(n-1))
	df := n - 1
	res := TTestResult{N: n, MeanDiff: mean, DF: df}
	if sd == 0 {
		// Degenerate: identical differences.
		if mean == 0 {
			res.P = 1
		} else {
			res.T = math.Inf(sign(mean))
			res.P = 0
		}
		res.CILower, res.CIUpper = mean, mean
		return res, nil
	}
	se := sd / math.Sqrt(float64(n))
	res.T = mean / se
	res.P = 2 * (1 - TCDF(math.Abs(res.T), float64(df)))
	tcrit := tCrit975(df)
	res.CILower = mean - float64(tcrit*se)
	res.CIUpper = mean + float64(tcrit*se)
	return res, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// tcrit975 memoizes TQuantile(0.975, df) by df (int → float64). A
// campaign's t-tests share a handful of sample sizes, and each bisection
// costs 55 TCDF evaluations. The value is a pure function of df, so which
// goroutine or world fills an entry first cannot change a bit of it.
var tcrit975 sync.Map

// tCrit975 returns the two-sided 95 % critical value of Student's t with
// df degrees of freedom.
func tCrit975(df int) float64 {
	if v, ok := tcrit975.Load(df); ok {
		return v.(float64)
	}
	v, _ := tcrit975.LoadOrStore(df, TQuantile(0.975, float64(df)))
	return v.(float64)
}

// TCDF returns P(T ≤ t) for Student's t with ν degrees of freedom.
func TCDF(t, nu float64) float64 {
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := nu / (nu + float64(t*t))
	ib := RegIncBeta(nu/2, 0.5, x)
	if t >= 0 {
		return 1 - float64(0.5*ib)
	}
	return 0.5 * ib
}

// TQuantile returns the p-th quantile of Student's t with ν degrees of
// freedom, by bisection on TCDF.
func TQuantile(p, nu float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	lo, hi := -1e6, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	return (lo + hi) / 2
}

// RegIncBeta computes the regularized incomplete beta function I_x(a,b)
// via the continued-fraction expansion (Numerical Recipes §6.4, modified
// Lentz's method).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + float64(a*math.Log(x)) + float64(b*math.Log(1-x)))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for RegIncBeta.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// AbsDiffs returns |x[i]−y[i]| pairs, the quantity of Figure 3b.
func AbsDiffs(x, y []float64) []float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Abs(x[i] - y[i])
	}
	return out
}
