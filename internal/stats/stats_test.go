package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(want) && math.Abs(got-want) > tol) {
		t.Fatalf("%s: got %v, want %v (+-%v)", what, got, want, tol)
	}
}

func TestMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	approx(t, Sum(xs), 10, 0, "sum")
	approx(t, Mean(xs), 2.5, 0, "mean")
	approx(t, Variance(xs), 1.25, 1e-12, "variance")
	approx(t, Std(xs), math.Sqrt(1.25), 1e-12, "std")
	approx(t, Min(xs), 1, 0, "min")
	approx(t, Max(xs), 4, 0, "max")
}

func TestEmptyMoments(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) ||
		!math.IsNaN(Variance(nil)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty-input statistics should be NaN")
	}
	if Sum(nil) != 0 {
		t.Fatal("empty sum should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	approx(t, Quantile(xs, 0), 1, 0, "q0")
	approx(t, Quantile(xs, 0.5), 3, 0, "median")
	approx(t, Quantile(xs, 1), 5, 0, "q1")
	approx(t, Quantile(xs, 0.25), 2, 1e-12, "q25")
	approx(t, Quantile([]float64{10}, 0.7), 10, 0, "single")
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	approx(t, e.Eval(0), 0, 0, "below range")
	approx(t, e.Eval(1), 0.25, 1e-12, "at min")
	approx(t, e.Eval(2), 0.75, 1e-12, "at mode")
	approx(t, e.Eval(2.5), 0.75, 1e-12, "between")
	approx(t, e.Eval(10), 1, 0, "above range")
	if e.Len() != 4 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	s := rng.New(99)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = s.Float64() * 100
	}
	e := NewECDF(xs)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		x := e.Quantile(p)
		approx(t, e.Eval(x), p, 0.01, "ECDF quantile inversion")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.6, 0.9, 1.5, -2}, 4, 0, 1)
	// -2 clamps to bin 0; 1.5 clamps to bin 3.
	want := []int{3, 0, 1, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bin %d count %d, want %d (all %v)", i, c, want[i], h.Counts)
		}
	}
	pdf := h.PDF()
	var s float64
	for _, p := range pdf {
		s += p
	}
	approx(t, s, 1, 1e-12, "pdf sums to 1")
	cs := h.BinCenters()
	approx(t, cs[0], 0.125, 1e-12, "first bin center")
	approx(t, cs[3], 0.875, 1e-12, "last bin center")
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
}

func TestMassCountBasics(t *testing.T) {
	// 9 items of size 1, one item of size 91: the big item is 10% of
	// items and 91% of the mass.
	xs := make([]float64, 10)
	for i := 0; i < 9; i++ {
		xs[i] = 1
	}
	xs[9] = 91
	mc := NewMassCount(xs)
	if mc == nil {
		t.Fatal("nil mass-count")
	}
	approx(t, mc.CountCDF(1), 0.9, 1e-12, "count CDF at 1")
	approx(t, mc.MassCDF(1), 0.09, 1e-12, "mass CDF at 1")
	approx(t, mc.CountCDF(91), 1, 0, "count CDF at max")
	approx(t, mc.MassCDF(91), 1, 0, "mass CDF at max")
	items, mass := mc.JointRatio()
	// Crossing occurs at the big item: 10% of items hold 91% of mass.
	approx(t, items, 10, 0.2, "joint ratio items")
	approx(t, mass, 90, 0.2, "joint ratio mass")
	if mc.MMDistance() <= 0 {
		t.Fatalf("mm-distance should be positive for a heavy tail, got %v", mc.MMDistance())
	}
}

func TestMassCountUniformSample(t *testing.T) {
	// Equal sizes: no disparity. Joint ratio ~50/50, mm-distance 0.
	xs := []float64{5, 5, 5, 5, 5, 5}
	mc := NewMassCount(xs)
	items, mass := mc.JointRatio()
	if items < 40 || items > 60 || mass < 40 || mass > 60 {
		t.Fatalf("uniform joint ratio %v/%v, want ~50/50", items, mass)
	}
	approx(t, mc.MMDistance(), 0, 1e-12, "uniform mm-distance")
}

func TestMassCountInvalid(t *testing.T) {
	if NewMassCount(nil) != nil {
		t.Fatal("empty input should give nil")
	}
	if NewMassCount([]float64{-1, 2}) != nil {
		t.Fatal("negative input should give nil")
	}
	if NewMassCount([]float64{0, 0}) != nil {
		t.Fatal("zero-mass input should give nil")
	}
}

func TestMassCountParetoVsExponential(t *testing.T) {
	// A Pareto sample must show a much stronger disparity than an
	// exponential one: smaller items share, larger mm-distance.
	s := rng.New(7)
	pareto := make([]float64, 20000)
	exp := make([]float64, 20000)
	for i := range pareto {
		u := 1 - s.Float64()
		pareto[i] = 1 / math.Pow(u, 1/0.9) // alpha = 0.9, very heavy
		exp[i] = s.ExpFloat64()
	}
	mcP := NewMassCount(pareto)
	mcE := NewMassCount(exp)
	itemsP, _ := mcP.JointRatio()
	itemsE, _ := mcE.JointRatio()
	if itemsP >= itemsE {
		t.Fatalf("pareto joint items %v should be < exponential %v", itemsP, itemsE)
	}
	if itemsP > 15 {
		t.Fatalf("pareto(0.9) joint items %v, want heavy (<15)", itemsP)
	}
}

func TestMassCountJointRatioSumsTo100(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 100 + s.IntN(400)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.ExpFloat64() + 0.001
		}
		mc := NewMassCount(xs)
		items, mass := mc.JointRatio()
		return math.Abs(items+mass-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMassCountCDFMonotone(t *testing.T) {
	s := rng.New(11)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = s.Float64() * 50
	}
	mc := NewMassCount(xs)
	grid, count, mass := mc.Curve(100)
	for i := 1; i < len(grid); i++ {
		if count[i] < count[i-1] || mass[i] < mass[i-1] {
			t.Fatal("mass-count curves not monotone")
		}
		// Mass CDF must lag the count CDF for non-negative sizes.
		if mass[i] > count[i]+1e-9 {
			t.Fatalf("mass CDF %v exceeds count CDF %v at x=%v", mass[i], count[i], grid[i])
		}
	}
}

func TestJainFairness(t *testing.T) {
	approx(t, JainFairness([]float64{5, 5, 5, 5}), 1, 1e-12, "equal values")
	// One dominant value among n pushes the index toward 1/n.
	approx(t, JainFairness([]float64{100, 0, 0, 0}), 0.25, 1e-12, "one dominant")
	approx(t, JainFairness([]float64{0, 0}), 1, 0, "all zeros")
	if !math.IsNaN(JainFairness(nil)) {
		t.Fatal("empty fairness should be NaN")
	}
	// Fairness is scale-invariant.
	a := JainFairness([]float64{1, 2, 3})
	b := JainFairness([]float64{10, 20, 30})
	approx(t, a, b, 1e-12, "scale invariance")
}

func TestJainFairnessBounds(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		n := 2 + s.IntN(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Float64() * 100
		}
		v := JainFairness(xs)
		return v >= 1/float64(n)-1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutocorrelation(t *testing.T) {
	// A constant-increment series is perfectly correlated at small lags.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = math.Sin(float64(i) / 10)
	}
	if ac := Autocorrelation(xs, 1); ac < 0.9 {
		t.Fatalf("smooth series lag-1 autocorrelation %v, want > 0.9", ac)
	}
	// White noise has near-zero autocorrelation.
	s := rng.New(3)
	noise := make([]float64, 5000)
	for i := range noise {
		noise[i] = s.NormFloat64()
	}
	if ac := Autocorrelation(noise, 1); math.Abs(ac) > 0.05 {
		t.Fatalf("white noise lag-1 autocorrelation %v, want ~0", ac)
	}
	if !math.IsNaN(Autocorrelation([]float64{1, 2}, 5)) {
		t.Fatal("short series should give NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{3, 3, 3, 3}, 1)) {
		t.Fatal("zero-variance series should give NaN")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	approx(t, Correlation(xs, ys), 1, 1e-12, "perfect positive")
	neg := []float64{10, 8, 6, 4, 2}
	approx(t, Correlation(xs, neg), -1, 1e-12, "perfect negative")
	if !math.IsNaN(Correlation(xs, xs[:3])) {
		t.Fatal("length mismatch should give NaN")
	}
	if !math.IsNaN(Correlation(xs, []float64{1, 1, 1, 1, 1})) {
		t.Fatal("zero variance should give NaN")
	}
}

func TestMassCountMediansBracketDistribution(t *testing.T) {
	// For heavy-tailed data, the mass median is far to the right of
	// the count median. Both must lie within the sample range.
	s := rng.New(21)
	xs := make([]float64, 10000)
	for i := range xs {
		u := 1 - s.Float64()
		xs[i] = math.Pow(u, -1/1.1)
	}
	mc := NewMassCount(xs)
	cm, mm := mc.CountMedian(), mc.MassMedian()
	lo, hi := Min(xs), Max(xs)
	if cm < lo || cm > hi || mm < lo || mm > hi {
		t.Fatalf("medians out of range: count=%v mass=%v range=[%v,%v]", cm, mm, lo, hi)
	}
	if mm <= cm {
		t.Fatalf("heavy tail should have mass median %v > count median %v", mm, cm)
	}
}

// TestHistogramRejectsNaN is the regression for the silent NaN
// binning: int(NaN * anything) is unspecified in Go, and before the
// guard NaN observations quietly landed in bin 0. They must be counted
// apart instead.
func TestHistogramRejectsNaN(t *testing.T) {
	h := NewHistogram([]float64{0.1, math.NaN(), 0.9, math.NaN()}, 10, 0, 1)
	if h.Total() != 2 {
		t.Errorf("Total = %d, want 2 (NaN excluded)", h.Total())
	}
	if h.NaN() != 2 {
		t.Errorf("NaN = %d, want 2", h.NaN())
	}
	if h.Counts[0] != 0 {
		t.Errorf("bin 0 count = %d, want 0 — NaN leaked into the first bin", h.Counts[0])
	}
	var total int
	for _, c := range h.Counts {
		total += c
	}
	if total != 2 {
		t.Errorf("binned %d, want 2", total)
	}
	// ±Inf clamp into the edge bins via the scaled-float comparison.
	h2 := NewHistogram([]float64{math.Inf(-1), math.Inf(1)}, 4, 0, 1)
	if h2.Counts[0] != 1 || h2.Counts[3] != 1 {
		t.Errorf("±Inf bins = %v, want edge bins", h2.Counts)
	}
}

// TestMassCountCurveSingleValue pins the degenerate lo == hi grid of
// the mass-count curve: n duplicate points, both CDFs at 1, nothing NaN.
func TestMassCountCurveSingleValue(t *testing.T) {
	mc := NewMassCount([]float64{3, 3})
	if mc == nil {
		t.Fatal("constant positive sample rejected")
	}
	xs, count, mass := mc.Curve(4)
	if len(xs) != 4 {
		t.Fatalf("got %d points, want 4", len(xs))
	}
	for i := range xs {
		if xs[i] != 3 || count[i] != 1 || mass[i] != 1 {
			t.Errorf("point %d = (%v, %v, %v), want (3, 1, 1)", i, xs[i], count[i], mass[i])
		}
	}
}
