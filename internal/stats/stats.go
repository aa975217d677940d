// Package stats implements the statistical machinery of the paper:
// empirical CDFs, histograms/PDFs, mass-count disparity (count CDF,
// mass CDF, joint ratio and mm-distance), Jain's fairness index,
// moments, quantiles, autocorrelation and correlation.
package stats

import (
	"math"
	"slices"
)

// ---------------------------------------------------------------------------
// moments and simple summaries

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for an empty
// slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (R type-7). It returns NaN
// for an empty slice. xs need not be sorted.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	slices.Sort(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	h := p * float64(len(sorted)-1)
	i := int(math.Floor(h))
	frac := h - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// ---------------------------------------------------------------------------
// ECDF

// ECDF is an empirical cumulative distribution function over a fixed
// sample. Construct with NewECDF, or NewECDFSorted to reuse an
// existing sorted view.
type ECDF struct {
	s *Sorted
}

// NewECDF copies and sorts the sample.
func NewECDF(xs []float64) *ECDF { return &ECDF{s: NewSorted(xs)} }

// NewECDFSorted wraps an existing sorted view without copying or
// re-sorting.
func NewECDFSorted(s *Sorted) *ECDF { return &ECDF{s: s} }

// Len returns the sample size.
func (e *ECDF) Len() int { return e.s.Len() }

// Eval returns P(X <= x).
func (e *ECDF) Eval(x float64) float64 { return e.s.CDF(x) }

// Quantile returns the p-quantile of the sample.
func (e *ECDF) Quantile(p float64) float64 { return e.s.Quantile(p) }

// ---------------------------------------------------------------------------
// Histogram / PDF

// Histogram is a fixed-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
	nan    int
}

// NewHistogram bins xs into nbins equal-width bins over [lo, hi].
// Values outside the range are clamped into the first/last bin.
func NewHistogram(xs []float64, nbins int, lo, hi float64) *Histogram {
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one observation. NaN observations are never binned —
// Go's float-to-int conversion of NaN is unspecified, and before this
// guard they silently landed in bin 0, skewing the distribution — but
// counted separately in NaN.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		h.nan++
		return
	}
	i := h.binIndex(x)
	h.Counts[i]++
	h.total++
}

// binIndex clamps on the scaled float before the int conversion so
// that ±Inf (whose direct conversion is likewise unspecified) lands in
// the edge bin its sign points at. x must not be NaN.
func (h *Histogram) binIndex(x float64) int {
	n := len(h.Counts)
	if h.Hi <= h.Lo {
		return 0
	}
	scaled := float64(n) * (x - h.Lo) / (h.Hi - h.Lo)
	if scaled < 0 {
		return 0
	}
	if scaled >= float64(n) {
		return n - 1
	}
	return int(scaled)
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// NaN returns the number of NaN observations Add rejected.
func (h *Histogram) NaN() int { return h.nan }

// PDF returns the probability mass per bin (sums to 1 for non-empty
// histograms).
func (h *Histogram) PDF() []float64 {
	pdf := make([]float64, len(h.Counts))
	if h.total == 0 {
		return pdf
	}
	for i, c := range h.Counts {
		pdf[i] = float64(c) / float64(h.total)
	}
	return pdf
}

// BinCenters returns the midpoint of each bin.
func (h *Histogram) BinCenters() []float64 {
	n := len(h.Counts)
	cs := make([]float64, n)
	w := (h.Hi - h.Lo) / float64(n)
	for i := range cs {
		cs[i] = h.Lo + w*(float64(i)+0.5)
	}
	return cs
}

// ---------------------------------------------------------------------------
// Mass-count disparity

// MassCount captures the mass-count disparity of a sample of
// non-negative sizes (Feitelson). The count CDF Fc(x) is the fraction
// of items of size <= x; the mass CDF Fm(x) is the fraction of the
// total mass contributed by items of size <= x.
type MassCount struct {
	sorted  []float64 // ascending item sizes
	cumMass []float64 // cumulative mass, cumMass[i] = sum(sorted[:i+1])
	total   float64
}

// NewMassCount builds the disparity structure. Negative values are
// rejected by returning nil; callers should validate inputs.
func NewMassCount(xs []float64) *MassCount {
	if len(xs) == 0 {
		return nil
	}
	return NewMassCountSorted(NewSorted(xs))
}

// NewMassCountSorted builds the disparity structure on an existing
// sorted view, sharing its backing slice (no copy, no re-sort).
func NewMassCountSorted(s *Sorted) *MassCount {
	sorted := s.Values()
	if len(sorted) == 0 || sorted[0] < 0 {
		return nil
	}
	cum := make([]float64, len(sorted))
	var tot float64
	for i, v := range sorted {
		tot += v
		cum[i] = tot
	}
	if tot == 0 {
		return nil
	}
	return &MassCount{sorted: sorted, cumMass: cum, total: tot}
}

// Len returns the number of items.
func (mc *MassCount) Len() int { return len(mc.sorted) }

// CountCDF returns Fc(x), the fraction of items with size <= x.
func (mc *MassCount) CountCDF(x float64) float64 {
	return float64(searchGT(mc.sorted, x)) / float64(len(mc.sorted))
}

// MassCDF returns Fm(x), the fraction of total mass in items <= x.
func (mc *MassCount) MassCDF(x float64) float64 {
	n := searchGT(mc.sorted, x)
	if n == 0 {
		return 0
	}
	return mc.cumMass[n-1] / mc.total
}

// CountMedian returns the median item size (Fc^-1(0.5)).
func (mc *MassCount) CountMedian() float64 {
	return quantileSorted(mc.sorted, 0.5)
}

// MassMedian returns the size x where half of the total mass lies in
// items <= x (Fm^-1(0.5)).
func (mc *MassCount) MassMedian() float64 {
	half := mc.total / 2
	i := searchGE(mc.cumMass, half)
	if i >= len(mc.sorted) {
		i = len(mc.sorted) - 1
	}
	return mc.sorted[i]
}

// MMDistance returns the horizontal distance between the medians of
// the count and mass CDFs, in the units of the item sizes. A large
// value indicates a strong disparity (heavy tail).
func (mc *MassCount) MMDistance() float64 {
	return mc.MassMedian() - mc.CountMedian()
}

// JointRatio returns (itemsPct, massPct) at the crossing point where
// Fc(x) + Fm(x) = 1: itemsPct% of the (largest) items account for
// massPct% of the mass, and vice versa. itemsPct + massPct = 100.
// For the Google task lengths the paper reports 6/94; for AuverGrid
// 24/76.
func (mc *MassCount) JointRatio() (itemsPct, massPct float64) {
	// Walk the sorted items; at each item the pair (Fc, Fm) increases
	// monotonically. Find the first index where Fc + Fm >= 1 and
	// linearly interpolate between the previous and current point so
	// the crossing is exact.
	n := len(mc.sorted)
	prevFc, prevFm := 0.0, 0.0
	for i := 0; i < n; i++ {
		fc := float64(i+1) / float64(n)
		fm := mc.cumMass[i] / mc.total
		if fc+fm >= 1 {
			dfc, dfm := fc-prevFc, fm-prevFm
			t := 1.0
			if dfc+dfm > 0 {
				t = (1 - prevFc - prevFm) / (dfc + dfm)
			}
			cross := prevFc + t*dfc
			// itemsPct is the share of items above the crossing point,
			// which equals the mass share below it.
			return round1(100 * (1 - cross)), round1(100 * cross)
		}
		prevFc, prevFm = fc, fm
	}
	return 0, 100
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }

// Curve returns n points of both CDFs for plotting: xs, count CDF and
// mass CDF values.
func (mc *MassCount) Curve(n int) (xs, count, mass []float64) {
	if n <= 0 || len(mc.sorted) == 0 {
		return nil, nil, nil
	}
	lo, hi := mc.sorted[0], mc.sorted[len(mc.sorted)-1]
	xs = make([]float64, n)
	count = make([]float64, n)
	mass = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		xs[i] = x
		count[i] = mc.CountCDF(x)
		mass[i] = mc.MassCDF(x)
	}
	return xs, count, mass
}

// ---------------------------------------------------------------------------
// fairness, autocorrelation, correlation

// JainFairness returns Jain's fairness index of xs:
// (Σx)² / (n·Σx²). The index is 1 when all values are equal and
// approaches 1/n as one value dominates. Returns NaN for empty input
// and 1 for an all-zero sample (perfectly equal).
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 1
	}
	return s * s / (float64(len(xs)) * s2)
}

// Autocorrelation returns the lag-k sample autocorrelation of xs.
// Returns NaN if the series is shorter than k+2 or has zero variance.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || n < lag+2 {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return math.NaN()
	}
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// Correlation returns the Pearson correlation of xs and ys.
// Returns NaN if the lengths differ or either side has zero variance.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
