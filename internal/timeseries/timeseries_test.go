package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustNew(t *testing.T, start, step int64, vs []float64) *Series {
	t.Helper()
	s, err := New(start, step, vs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadStep(t *testing.T) {
	if _, err := New(0, 0, nil); err == nil {
		t.Fatal("step 0 accepted")
	}
	if _, err := New(0, -5, nil); err == nil {
		t.Fatal("negative step accepted")
	}
}

func TestBasicAccessors(t *testing.T) {
	s := mustNew(t, 100, 10, []float64{1, 2, 3})
	if s.Len() != 3 || s.End() != 130 || s.TimeAt(2) != 120 {
		t.Fatalf("accessors wrong: len=%d end=%d t2=%d", s.Len(), s.End(), s.TimeAt(2))
	}
	if s.At(105) != 1 || s.At(110) != 2 || s.At(129) != 3 {
		t.Fatal("At lookup wrong")
	}
	if !math.IsNaN(s.At(99)) || !math.IsNaN(s.At(130)) {
		t.Fatal("out-of-range At should be NaN")
	}
}

func TestSlice(t *testing.T) {
	s := mustNew(t, 0, 10, []float64{0, 1, 2, 3, 4, 5})
	sub := s.Slice(15, 45)
	if sub.Start != 10 || sub.Len() != 4 {
		t.Fatalf("slice start=%d len=%d", sub.Start, sub.Len())
	}
	if sub.Values[0] != 1 || sub.Values[3] != 4 {
		t.Fatalf("slice values %v", sub.Values)
	}
	empty := s.Slice(100, 200)
	if empty.Len() != 0 {
		t.Fatal("out-of-range slice should be empty")
	}
	// Mutating the slice must not touch the original.
	sub.Values[0] = 99
	if s.Values[1] == 99 {
		t.Fatal("slice shares storage")
	}
}

func TestMeanFilterConstantInvariant(t *testing.T) {
	s := mustNew(t, 0, 1, []float64{4, 4, 4, 4, 4})
	sm := s.MeanFilter(2)
	for _, v := range sm.Values {
		if v != 4 {
			t.Fatalf("mean filter changed constant series: %v", sm.Values)
		}
	}
}

func TestMeanFilterSmooths(t *testing.T) {
	src := rng.New(1)
	vs := make([]float64, 500)
	for i := range vs {
		vs[i] = src.Float64()
	}
	s := mustNew(t, 0, 1, vs)
	sm := s.MeanFilter(5)
	// Variance of smoothed noise must drop substantially.
	varOf := func(xs []float64) float64 {
		var m float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		var v float64
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return v / float64(len(xs))
	}
	if varOf(sm.Values) > varOf(s.Values)/3 {
		t.Fatalf("mean filter barely smoothed: %v vs %v", varOf(sm.Values), varOf(s.Values))
	}
}

func TestMeanFilterZeroHalfIsCopy(t *testing.T) {
	s := mustNew(t, 0, 1, []float64{1, 2, 3})
	sm := s.MeanFilter(0)
	for i, v := range sm.Values {
		if v != s.Values[i] {
			t.Fatal("half=0 should copy")
		}
	}
	sm.Values[0] = 42
	if s.Values[0] == 42 {
		t.Fatal("filter output shares storage")
	}
}

func TestNoise(t *testing.T) {
	// Constant series: zero noise.
	c := mustNew(t, 0, 1, []float64{2, 2, 2, 2, 2, 2})
	if n := c.Noise(2); n != 0 {
		t.Fatalf("constant noise %v, want 0", n)
	}
	// Alternating series is all noise.
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	a := mustNew(t, 0, 1, alt)
	if n := a.Noise(2); n < 0.2 {
		t.Fatalf("alternating noise %v, want large", n)
	}
	short := mustNew(t, 0, 1, []float64{1})
	if !math.IsNaN(short.Noise(2)) {
		t.Fatal("short series noise should be NaN")
	}
}

func TestNoiseOrdering(t *testing.T) {
	// A jittery signal must measure noisier than a slowly-drifting one
	// of the same amplitude — this is the Fig 13 Google-vs-Grid check.
	src := rng.New(2)
	n := 2000
	smooth := make([]float64, n)
	jitter := make([]float64, n)
	for i := range smooth {
		smooth[i] = 0.5 + 0.3*math.Sin(float64(i)/200)
		jitter[i] = 0.5 + 0.3*(src.Float64()-0.5)
	}
	s1 := mustNew(t, 0, 300, smooth)
	s2 := mustNew(t, 0, 300, jitter)
	if s2.Noise(3) < 10*s1.Noise(3) {
		t.Fatalf("jitter noise %v should dwarf smooth noise %v", s2.Noise(3), s1.Noise(3))
	}
}

func TestQuantize(t *testing.T) {
	s := mustNew(t, 0, 1, []float64{0, 0.1, 0.2, 0.5, 0.99, 1.0, -0.5, 2})
	got := s.Quantize(5)
	want := []int{0, 0, 1, 2, 4, 4, 0, 4}
	for i, l := range got {
		if l != want[i] {
			t.Fatalf("quantize %v, want %v", got, want)
		}
	}
}

func TestSegments(t *testing.T) {
	s := mustNew(t, 0, 300, []float64{0.1, 0.1, 0.5, 0.5, 0.5, 0.9})
	segs := s.LevelSegments(5)
	if len(segs) != 3 {
		t.Fatalf("segments %v", segs)
	}
	if segs[0].Level != 0 || segs[0].Duration != 600 || segs[0].Start != 0 {
		t.Fatalf("segment 0 %+v", segs[0])
	}
	if segs[1].Level != 2 || segs[1].Duration != 900 || segs[1].Start != 600 {
		t.Fatalf("segment 1 %+v", segs[1])
	}
	if segs[2].Level != 4 || segs[2].Duration != 300 {
		t.Fatalf("segment 2 %+v", segs[2])
	}
}

func TestSegmentsCoverSeries(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.IntN(200)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = src.Float64()
		}
		s, _ := New(0, 300, vs)
		segs := s.LevelSegments(5)
		var total int64
		for _, sg := range segs {
			total += sg.Duration
		}
		return total == int64(n)*300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulator(t *testing.T) {
	a, err := NewAccumulator(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	a.Add(5, 1)
	a.Add(5, 2)
	a.Add(95, 4)
	a.Add(-1, 100) // ignored
	a.Add(100, 100)
	s := a.Series()
	if s.Values[0] != 3 || s.Values[9] != 4 {
		t.Fatalf("accumulator values %v", s.Values)
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	if sum != 7 {
		t.Fatalf("out-of-range adds leaked: %v", sum)
	}
}

func TestAccumulatorRejectsBadRange(t *testing.T) {
	if _, err := NewAccumulator(10, 5, 1); err == nil {
		t.Fatal("end<start accepted")
	}
	if _, err := NewAccumulator(0, 10, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestAddRange(t *testing.T) {
	a, _ := NewAccumulator(0, 100, 10)
	// rate 1 over [5, 25): sample 0 gets 0.5, sample 1 gets 1, sample 2 gets 0.5.
	a.AddRange(5, 25, 1)
	s := a.Series()
	if s.Values[0] != 0.5 || s.Values[1] != 1 || s.Values[2] != 0.5 {
		t.Fatalf("AddRange distribution %v", s.Values[:3])
	}
	// Clipping at the ends.
	a2, _ := NewAccumulator(0, 20, 10)
	a2.AddRange(-100, 100, 1)
	s2 := a2.Series()
	if s2.Values[0] != 1 || s2.Values[1] != 1 {
		t.Fatalf("clipped AddRange %v", s2.Values)
	}
	a2.AddRange(5, 5, 10) // empty range: no-op
	if a2.Series().Values[0] != 1 {
		t.Fatal("empty range changed values")
	}
}

func TestAddRangeConservesMass(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		a, _ := NewAccumulator(0, 1000, 7)
		from := int64(src.IntN(900))
		to := from + int64(src.IntN(int(1000-from))) + 1
		if to > 1000 {
			to = 1000
		}
		a.AddRange(from, to, 1)
		var sum float64
		for _, v := range a.Series().Values {
			sum += v
		}
		// Total mass = duration / step (rate per sample scaled by overlap).
		want := float64(to-from) / 7
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutocorrelationDelegates(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = math.Sin(float64(i) / 5)
	}
	s := mustNew(t, 0, 1, vs)
	if s.Autocorrelation(1) < 0.8 {
		t.Fatal("smooth series should autocorrelate")
	}
}

// TestQuantizeNonFinite is the regression for unspecified float-to-int
// conversion: NaN samples must map to the -1 sentinel (they used to
// land in an arbitrary level, typically 0, inflating the idle share),
// and ±Inf must clamp into the edge levels via the scaled-float
// comparison.
func TestQuantizeNonFinite(t *testing.T) {
	s := &Series{Step: 300, Values: []float64{0.1, math.NaN(), 0.95, math.Inf(1), math.Inf(-1), -0.3, 1.7}}
	got := s.Quantize(5)
	want := []int{0, -1, 4, 4, 0, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantize[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSegmentsSkipNaNLevels checks a NaN gap splits the neighbouring
// runs instead of extending them: the -1 sentinel forms its own
// segment consumers can skip.
func TestSegmentsSkipNaNLevels(t *testing.T) {
	s := &Series{Step: 300, Values: []float64{0.1, 0.1, math.NaN(), 0.1}}
	segs := s.LevelSegments(5)
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3 (run, NaN gap, run): %+v", len(segs), segs)
	}
	if segs[1].Level != -1 {
		t.Errorf("gap level = %d, want -1", segs[1].Level)
	}
	if segs[0].Duration != 600 || segs[2].Duration != 300 {
		t.Errorf("runs spanned the gap: %+v", segs)
	}
}
