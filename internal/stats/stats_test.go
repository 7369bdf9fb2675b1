package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !approx(v, 32.0/7, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for q, want := range cases {
		if got := Quantile(xs, q); !approx(got, want, 1e-12) {
			t.Fatalf("q=%v got %v want %v", q, got, want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); !approx(got, 1.5, 1e-12) {
		t.Fatalf("interpolation: %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestSummarizeOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		b := Summarize(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.Mean >= b.Min && b.Mean <= b.Max && b.N == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFMonotoneAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	var e ECDF
	e.Load(xs)
	prev := 0.0
	for x := -40.0; x <= 40; x += 0.5 {
		p := e.At(x)
		if p < prev || p < 0 || p > 1 {
			t.Fatalf("ECDF not monotone at %v: %v < %v", x, p, prev)
		}
		prev = p
	}
	if e.At(math.Inf(1)) != 1 || e.At(math.Inf(-1)) != 0 {
		t.Fatal("ECDF bounds")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if e.At(sorted[len(sorted)-1]) != 1 {
		t.Fatal("ECDF at max must be 1")
	}
}

func TestECDFInverse(t *testing.T) {
	var e ECDF
	e.Load([]float64{9, 8, 7, 6, 5})
	xs := []float64{4, 2, 3, 1}
	e.Load(xs) // a second sample replaces the first; xs keeps its order
	if xs[0] != 4 {
		t.Fatalf("Load reordered its sample: %v", xs)
	}
	if got := e.InverseAt(0.5); got != 2 {
		t.Fatalf("inverse(0.5) = %v", got)
	}
	if got := e.InverseAt(1); got != 4 {
		t.Fatalf("inverse(1) = %v", got)
	}
	if len(e.sorted) != 4 || e.At(e.sorted[3]) != 1 {
		t.Fatal("the largest sample is not at P = 1")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := RegIncBeta(1, 1, x); !approx(got, x, 1e-10) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = x²(3−2x).
	for _, x := range []float64{0.1, 0.3, 0.7, 0.9} {
		want := x * x * (3 - 2*x)
		if got := RegIncBeta(2, 2, x); !approx(got, want, 1e-10) {
			t.Fatalf("I_%v(2,2) = %v want %v", x, got, want)
		}
	}
}

func TestTCDFKnownValues(t *testing.T) {
	// With ν=1 (Cauchy): CDF(1) = 0.75, CDF(0) = 0.5.
	if got := TCDF(0, 5); !approx(got, 0.5, 1e-12) {
		t.Fatalf("TCDF(0) = %v", got)
	}
	if got := TCDF(1, 1); !approx(got, 0.75, 1e-8) {
		t.Fatalf("TCDF(1;1) = %v", got)
	}
	// Large ν approaches the normal: CDF(1.96; 1e6) ≈ 0.975.
	if got := TCDF(1.96, 1e6); !approx(got, 0.975, 1e-3) {
		t.Fatalf("TCDF(1.96;1e6) = %v", got)
	}
	// Symmetry.
	for _, tv := range []float64{0.3, 1.1, 2.7} {
		if got := TCDF(tv, 7) + TCDF(-tv, 7); !approx(got, 1, 1e-10) {
			t.Fatalf("symmetry broken at %v: %v", tv, got)
		}
	}
}

func TestTQuantileInvertsTCDF(t *testing.T) {
	for _, nu := range []float64{2, 5, 30, 200} {
		for _, p := range []float64{0.05, 0.5, 0.9, 0.975} {
			q := TQuantile(p, nu)
			if got := TCDF(q, nu); !approx(got, p, 1e-6) {
				t.Fatalf("ν=%v p=%v: TCDF(TQuantile)=%v", nu, p, got)
			}
		}
	}
	// Classic table value: t_{0.975, 10} ≈ 2.228.
	if q := TQuantile(0.975, 10); !approx(q, 2.228, 0.002) {
		t.Fatalf("t_{0.975,10} = %v", q)
	}
}

func TestPairedTIdenticalSamples(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	res, err := PairedT(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDiff != 0 || res.P != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// TestPairedTConstantShift: differences that are all the same nonzero
// value have no spread, so t is infinite with the shift's sign and the
// interval is the shift itself.
func TestPairedTConstantShift(t *testing.T) {
	x, y := []float64{1, 2, 3, 4}, []float64{3, 4, 5, 6}
	for _, tc := range []struct {
		a, b []float64
		sign int
	}{{x, y, -1}, {y, x, 1}} {
		res, err := PairedT(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(res.T, tc.sign) || res.P != 0 || res.CILower != res.MeanDiff || res.CIUpper != res.MeanDiff {
			t.Fatalf("res = %+v, want t = %dInf, p = 0 and the interval at the mean difference", res, tc.sign)
		}
	}
}

func TestPairedTDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		base := rng.NormFloat64()
		x[i] = base + 1.0 // constant shift of +1
		y[i] = base + rng.NormFloat64()*0.1
	}
	res, err := PairedT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P >= 0.05 {
		t.Fatalf("shift not detected: %+v", res)
	}
	if res.MeanDiff < 0.8 || res.MeanDiff > 1.2 {
		t.Fatalf("mean diff %v", res.MeanDiff)
	}
	if res.CILower > 1 || res.CIUpper < 1 {
		t.Fatalf("CI [%v,%v] should cover 1", res.CILower, res.CIUpper)
	}
	if res.T < 0 {
		t.Fatal("t should be positive for x>y")
	}
}

func TestPairedTNoEffect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rejections := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		n := 30
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		res, err := PairedT(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			rejections++
		}
	}
	// Under H0 the rejection rate should be about 5%.
	if rejections > trials/5 {
		t.Fatalf("false-positive rate too high: %d/%d", rejections, trials)
	}
}

func TestPairedTAntisymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Float64() * 10
			y[i] = rng.Float64() * 10
		}
		a, err1 := PairedT(x, y)
		b, err2 := PairedT(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return approx(a.MeanDiff, -b.MeanDiff, 1e-9) &&
			approx(a.T, -b.T, 1e-9) &&
			approx(a.P, b.P, 1e-9) &&
			approx(a.CILower, -b.CIUpper, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPairedTErrors(t *testing.T) {
	if _, err := PairedT([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := PairedT([]float64{1}, []float64{2}); err != ErrTooFewPairs {
		t.Fatalf("want ErrTooFewPairs, got %v", err)
	}
}

func TestAbsDiffs(t *testing.T) {
	got := AbsDiffs([]float64{1, 5, 2}, []float64{4, 3, 2})
	want := []float64{3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestCIAlwaysContainsMeanDiff(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()*5 + 2
			y[i] = rng.NormFloat64() * 3
		}
		res, err := PairedT(x, y)
		if err != nil {
			return false
		}
		return res.CILower <= res.MeanDiff && res.MeanDiff <= res.CIUpper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTCDFMonotone(t *testing.T) {
	for _, nu := range []float64{1, 3, 10, 100} {
		prev := -1.0
		for tv := -8.0; tv <= 8.0; tv += 0.25 {
			p := TCDF(tv, nu)
			if p < prev || p < 0 || p > 1 {
				t.Fatalf("TCDF not monotone at t=%v ν=%v: %v < %v", tv, nu, p, prev)
			}
			prev = p
		}
	}
}

func TestPairedTPValueInUnitInterval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 100
			y[i] = rng.Float64() * 100
		}
		res, err := PairedT(x, y)
		if err != nil {
			return false
		}
		return res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	b := Summarize([]float64{7})
	if b.Min != 7 || b.Max != 7 || b.Median != 7 || b.Mean != 7 || b.N != 1 || b.SD != 0 {
		t.Fatalf("singleton summary: %+v", b)
	}
}

// TestTCritMemoMatchesBisection holds the critical-value memo to the
// bisection it caches, bit for bit: filled in order, then refilled from
// 8 goroutines at once (which the race detector watches under -race).
// PairedT's interval is pinned to the same value.
func TestTCritMemoMatchesBisection(t *testing.T) {
	dfs := []int{999, 10000}
	for df := 1; df <= 256; df++ {
		dfs = append(dfs, df)
	}
	want := make([]uint64, len(dfs))
	for i, df := range dfs {
		want[i] = math.Float64bits(TQuantile(0.975, float64(df)))
	}
	reset := func() {
		tcrit975.Range(func(k, _ any) bool {
			tcrit975.Delete(k)
			return true
		})
	}
	reset()
	for i, df := range dfs {
		if got := math.Float64bits(tCrit975(df)); got != want[i] {
			t.Fatalf("df %d: memo %x, bisection %x", df, got, want[i])
		}
	}
	reset()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range dfs {
				i := (k + 31*g) % len(dfs)
				if got := math.Float64bits(tCrit975(dfs[i])); got != want[i] {
					t.Errorf("goroutine %d, df %d: memo %x, bisection %x", g, dfs[i], got, want[i])
				}
			}
		}()
	}
	wg.Wait()

	x := []float64{3.1, 2.2, 5.9, 4.4, 1.3, 2.8}
	y := []float64{2.0, 2.5, 4.1, 4.0, 1.9, 1.1}
	res, err := PairedT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, len(x))
	for i := range x {
		d[i] = x[i] - y[i]
	}
	se := StdDev(d) / math.Sqrt(float64(len(d)))
	tcrit := TQuantile(0.975, float64(len(d)-1))
	if res.CILower != Mean(d)-tcrit*se || res.CIUpper != Mean(d)+tcrit*se {
		t.Fatalf("CI [%v, %v] is not mean ± TQuantile(0.975, df)·se", res.CILower, res.CIUpper)
	}
}

// TestSummarizeMatchesQuantile requires every field of a Box to be
// bit-equal to the one-statistic functions, on samples with ties, -0
// and negatives, and the input to be left as it was.
func TestSummarizeMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := []float64{0, math.Copysign(0, -1), -1, 1, -2.5, 2.5, 7}
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 4; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				if rng.Intn(2) == 0 {
					xs[i] = pool[rng.Intn(len(pool))]
				} else {
					xs[i] = rng.NormFloat64() * 50
				}
			}
			before := make([]uint64, n)
			for i, x := range xs {
				before[i] = math.Float64bits(x)
			}
			b := Summarize(xs)
			for i, x := range xs {
				if math.Float64bits(x) != before[i] {
					t.Fatalf("n=%d: Summarize reordered its input at %d", n, i)
				}
			}
			fields := []struct {
				name      string
				got, want float64
			}{
				{"Min", b.Min, Quantile(xs, 0)},
				{"Q1", b.Q1, Quantile(xs, 0.25)},
				{"Median", b.Median, Quantile(xs, 0.5)},
				{"Q3", b.Q3, Quantile(xs, 0.75)},
				{"Max", b.Max, Quantile(xs, 1)},
				{"Mean", b.Mean, Mean(xs)},
				{"SD", b.SD, StdDev(xs)},
			}
			for _, f := range fields {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Fatalf("n=%d %s: Summarize %v, want %v (sample %v)", n, f.name, f.got, f.want, xs)
				}
			}
			if b.N != n {
				t.Fatalf("n=%d: N = %d", n, b.N)
			}
		}
	}
}

// pairedTSlice is PairedT as it was while it stored the differences in
// a slice: the reference TestPairedTMatchesSliceForm holds it to.
func pairedTSlice(x, y []float64) TTestResult {
	n := len(x)
	d := make([]float64, n)
	for i := range x {
		d[i] = x[i] - y[i]
	}
	mean, sd, df := Mean(d), StdDev(d), n-1
	res := TTestResult{N: n, MeanDiff: mean, DF: df}
	if sd == 0 {
		if mean == 0 {
			res.P = 1
		} else {
			res.T = math.Inf(sign(mean))
		}
		res.CILower, res.CIUpper = mean, mean
		return res
	}
	se := sd / math.Sqrt(float64(n))
	res.T = mean / se
	res.P = 2 * (1 - TCDF(math.Abs(res.T), float64(df)))
	tcrit := tCrit975(df)
	res.CILower = mean - float64(tcrit*se)
	res.CIUpper = mean + float64(tcrit*se)
	return res
}

// TestPairedTMatchesSliceForm requires every field of PairedT to be
// bit-equal to the slice-based reference over drawn samples: n=2,
// constant shifts, large magnitudes and identical samples among them.
// It also holds PairedT to no allocation.
func TestPairedTMatchesSliceForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(x, y []float64) {
		t.Helper()
		got, err := PairedT(x, y)
		if err != nil {
			t.Fatalf("n=%d: %v", len(x), err)
		}
		want := pairedTSlice(x, y)
		fields := []struct {
			name      string
			got, want float64
		}{
			{"MeanDiff", got.MeanDiff, want.MeanDiff},
			{"T", got.T, want.T},
			{"P", got.P, want.P},
			{"CILower", got.CILower, want.CILower},
			{"CIUpper", got.CIUpper, want.CIUpper},
		}
		for _, f := range fields {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("n=%d %s: %v, slice form %v (x %v, y %v)", len(x), f.name, f.got, f.want, x, y)
			}
		}
		if got.N != want.N || got.DF != want.DF {
			t.Fatalf("n=%d: N, DF = %d, %d; slice form %d, %d", len(x), got.N, got.DF, want.N, want.DF)
		}
	}
	for _, n := range []int{2, 3, 5, 17, 64, 1000} {
		for trial := 0; trial < 8; trial++ {
			scale := []float64{1, 1e-9, 1e12, 1e300}[trial%4]
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = (rng.NormFloat64()*3 + 10) * scale
				y[i] = (rng.NormFloat64()*3 + 9) * scale
			}
			check(x, y)
			check(x, x)
			shift := rng.NormFloat64() * scale
			for i := range y {
				y[i] = x[i] + shift
			}
			check(x, y)
			check([]float64{x[0], 0}, []float64{0, x[0]})
		}
	}
	check([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6})
	x := []float64{3.1, 2.2, 5.9, 4.4, 1.3, 2.8}
	y := []float64{2.0, 2.5, 4.1, 4.0, 1.9, 1.1}
	check(x, y)
	if a := testing.AllocsPerRun(100, func() { PairedT(x, y) }); a != 0 {
		t.Fatalf("PairedT allocates %v times per call, want 0", a)
	}
}
