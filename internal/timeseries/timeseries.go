// Package timeseries provides the regularly-sampled time-series
// operations used by the host-load analyses: resampling, mean
// filtering, noise extraction, level quantisation and unchanged-level
// segmentation.
//
// The Google trace reports usage every 5 minutes; a Series models such
// a fixed-step signal as (start, step, values).
package timeseries

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Series is a regularly-sampled time series. Values[i] is the sample
// for the interval starting at Start + i*Step seconds.
type Series struct {
	Start  int64 // seconds since trace epoch
	Step   int64 // seconds between samples, > 0
	Values []float64
}

// New returns a Series with the given start and step and a copy of vs.
func New(start, step int64, vs []float64) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timeseries: step %d must be positive", step)
	}
	return &Series{Start: start, Step: step, Values: append([]float64(nil), vs...)}, nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// End returns the timestamp just after the last sample interval.
func (s *Series) End() int64 { return s.Start + int64(len(s.Values))*s.Step }

// TimeAt returns the start timestamp of sample i.
func (s *Series) TimeAt(i int) int64 { return s.Start + int64(i)*s.Step }

// At returns the value covering timestamp t, or NaN if t is outside
// the series.
func (s *Series) At(t int64) float64 {
	if t < s.Start || t >= s.End() {
		return math.NaN()
	}
	return s.Values[(t-s.Start)/s.Step]
}

// Slice returns the sub-series covering [from, to) clipped to the
// series bounds. The returned series shares no storage with s.
func (s *Series) Slice(from, to int64) *Series {
	if from < s.Start {
		from = s.Start
	}
	if to > s.End() {
		to = s.End()
	}
	if to <= from {
		return &Series{Start: from, Step: s.Step}
	}
	i := int((from - s.Start) / s.Step)
	j := int((to - s.Start + s.Step - 1) / s.Step)
	if j > len(s.Values) {
		j = len(s.Values)
	}
	return &Series{
		Start:  s.TimeAt(i),
		Step:   s.Step,
		Values: append([]float64(nil), s.Values[i:j]...),
	}
}

// MeanFilter returns the series smoothed with a centred moving-average
// window of the given half-width (the window covers 2*half+1 samples,
// truncated at the boundaries). half <= 0 returns a copy.
func (s *Series) MeanFilter(half int) *Series {
	out := make([]float64, len(s.Values))
	if half <= 0 {
		copy(out, s.Values)
		return &Series{Start: s.Start, Step: s.Step, Values: out}
	}
	// Prefix sums give O(n) smoothing.
	prefix := make([]float64, len(s.Values)+1)
	for i, v := range s.Values {
		prefix[i+1] = prefix[i] + v
	}
	for i := range s.Values {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(s.Values) {
			hi = len(s.Values)
		}
		out[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	return &Series{Start: s.Start, Step: s.Step, Values: out}
}

// Noise measures the high-frequency noise of the series following the
// paper's method: smooth with a mean filter of the given half-width,
// then return the mean absolute residual |x - smoothed(x)|.
// Returns NaN for series shorter than 2 samples.
func (s *Series) Noise(half int) float64 {
	if len(s.Values) < 2 {
		return math.NaN()
	}
	sm := s.MeanFilter(half)
	var sum float64
	for i, v := range s.Values {
		sum += math.Abs(v - sm.Values[i])
	}
	return sum / float64(len(s.Values))
}

// Autocorrelation returns the lag-k autocorrelation of the values.
func (s *Series) Autocorrelation(lag int) float64 {
	return stats.Autocorrelation(s.Values, lag)
}

// Quantize maps each value to a level index in [0, levels) assuming
// values lie in [0, 1]; out-of-range values are clamped. These are the
// paper's five usage intervals [0,0.2), [0.2,0.4), ... [0.8,1].
//
// NaN samples map to level -1: Go's float-to-int conversion of NaN is
// unspecified, and before this guard NaN quietly landed in level 0,
// inflating the idle share. Level-segmentation consumers skip negative
// levels. The clamps run on the scaled float before the int
// conversion, so ±Inf (likewise unspecified to convert) clamp into
// the edge levels.
func (s *Series) Quantize(levels int) []int {
	out := make([]int, len(s.Values))
	for i, v := range s.Values {
		if math.IsNaN(v) {
			out[i] = -1
			continue
		}
		scaled := v * float64(levels)
		switch {
		case scaled < 0:
			out[i] = 0
		case scaled >= float64(levels):
			out[i] = levels - 1
		default:
			out[i] = int(scaled)
		}
	}
	return out
}

// Segment is a maximal run of samples with the same (quantised) value.
type Segment struct {
	Level    int   // level index (or raw value cast for integer series)
	Start    int64 // timestamp of first sample in the run
	Duration int64 // seconds covered by the run
}

// SegmentsOf returns the maximal constant runs of an integer-level
// sequence sampled at the series' own step.
func (s *Series) SegmentsOf(levels []int) []Segment {
	if len(levels) == 0 {
		return nil
	}
	var segs []Segment
	cur := Segment{Level: levels[0], Start: s.Start, Duration: s.Step}
	for i := 1; i < len(levels); i++ {
		if levels[i] == cur.Level {
			cur.Duration += s.Step
			continue
		}
		segs = append(segs, cur)
		cur = Segment{Level: levels[i], Start: s.TimeAt(i), Duration: s.Step}
	}
	return append(segs, cur)
}

// LevelSegments quantises the series into the given number of levels
// and returns the unchanged-level segments.
func (s *Series) LevelSegments(levels int) []Segment {
	return s.SegmentsOf(s.Quantize(levels))
}

// Accumulator incrementally builds a fixed-step series from point
// contributions: Add(t, v) adds v to the sample covering t. It is how
// the simulator turns per-task usage into per-machine signals.
type Accumulator struct {
	start, step int64
	values      []float64
}

// NewAccumulator creates an accumulator covering [start, end) with the
// given step.
func NewAccumulator(start, end, step int64) (*Accumulator, error) {
	if step <= 0 || end < start {
		return nil, fmt.Errorf("timeseries: invalid accumulator range [%d,%d) step %d", start, end, step)
	}
	n := (end - start + step - 1) / step
	return &Accumulator{start: start, step: step, values: make([]float64, n)}, nil
}

// Add adds v to the sample covering time t; out-of-range times are
// ignored.
func (a *Accumulator) Add(t int64, v float64) {
	if t < a.start {
		return
	}
	i := (t - a.start) / a.step
	if int(i) >= len(a.values) {
		return
	}
	a.values[i] += v
}

// AddRange distributes rate*duration over all samples intersecting
// [from, to): each covered sample gains rate weighted by the overlap
// fraction of that sample interval.
func (a *Accumulator) AddRange(from, to int64, rate float64) {
	if to <= from {
		return
	}
	end := a.start + int64(len(a.values))*a.step
	if from < a.start {
		from = a.start
	}
	if to > end {
		to = end
	}
	if to <= from {
		return
	}
	i := (from - a.start) / a.step
	for t := from; t < to; {
		sampleEnd := a.start + (i+1)*a.step
		segEnd := sampleEnd
		if to < segEnd {
			segEnd = to
		}
		frac := float64(segEnd-t) / float64(a.step)
		a.values[i] += rate * frac
		t = segEnd
		i++
	}
}

// Series finalises the accumulator into a Series.
func (a *Accumulator) Series() *Series {
	return &Series{Start: a.start, Step: a.step, Values: append([]float64(nil), a.values...)}
}
