package predict

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timeseries"
)

func series(vs []float64) *timeseries.Series {
	return &timeseries.Series{Start: 0, Step: 300, Values: vs}
}

func TestLastValue(t *testing.T) {
	p := LastValue{}
	if p.Predict([]float64{1, 2, 3}) != 3 {
		t.Fatal("last-value wrong")
	}
	if p.Name() != "last-value" {
		t.Fatal("name wrong")
	}
}

func TestMovingAverage(t *testing.T) {
	p := MovingAverage{Window: 2}
	if got := p.Predict([]float64{1, 2, 4}); got != 3 {
		t.Fatalf("moving average %v, want 3", got)
	}
	// Window larger than history: use everything.
	if got := p.Predict([]float64{6}); got != 6 {
		t.Fatalf("short history %v", got)
	}
	// Zero window coerces to 1.
	if got := (MovingAverage{}).Predict([]float64{1, 9}); got != 9 {
		t.Fatalf("zero window %v", got)
	}
}

func TestExpSmoothing(t *testing.T) {
	p := ExpSmoothing{Alpha: 0.5}
	// s = 0.5*4 + 0.5*(0.5*2 + 0.5*0) = 2.5
	if got := p.Predict([]float64{0, 2, 4}); got != 2.5 {
		t.Fatalf("exp smoothing %v, want 2.5", got)
	}
	// Alpha 1 reduces to last value.
	if got := (ExpSmoothing{Alpha: 1}).Predict([]float64{1, 7}); got != 7 {
		t.Fatalf("alpha 1 %v", got)
	}
}

func TestAR1PerfectLinear(t *testing.T) {
	// x_{t+1} = 0.5*x_t + 1: fixed point at 2.
	vs := []float64{0}
	for i := 0; i < 30; i++ {
		vs = append(vs, 0.5*vs[len(vs)-1]+1)
	}
	p := AR1{Window: 30}
	pred := p.Predict(vs)
	want := 0.5*vs[len(vs)-1] + 1
	if math.Abs(pred-want) > 1e-6 {
		t.Fatalf("AR1 %v, want %v", pred, want)
	}
}

func TestAR1DegenerateFallsBack(t *testing.T) {
	p := AR1{Window: 10}
	vs := []float64{3, 3, 3, 3, 3, 3}
	if got := p.Predict(vs); got != 3 {
		t.Fatalf("degenerate AR1 %v, want 3", got)
	}
	if got := p.Predict([]float64{1, 2}); got != 2 {
		t.Fatalf("short AR1 %v, want last value", got)
	}
}

func TestMarkovLevelPersistence(t *testing.T) {
	// A series that flips 0.1 -> 0.9 -> 0.1 ... : from level 0 the most
	// likely next level is 4.
	var vs []float64
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			vs = append(vs, 0.1)
		} else {
			vs = append(vs, 0.9)
		}
	}
	p := MarkovLevel{Levels: 5, Window: 40}
	pred := p.Predict(vs) // last value 0.9 (level 4) -> next level 0
	if usageLevel(pred) != 0 {
		t.Fatalf("markov predicted level %d, want 0 (pred %v)", usageLevel(pred), pred)
	}
	// Constant series stays put.
	flat := make([]float64, 20)
	for i := range flat {
		flat[i] = 0.5
	}
	if got := p.Predict(flat); usageLevel(got) != 2 {
		t.Fatalf("flat markov %v", got)
	}
}

func TestMarkovLevelUnseenState(t *testing.T) {
	// Last value jumps to a level never seen before: fall back to it.
	vs := []float64{0.1, 0.1, 0.1, 0.1, 0.95}
	p := MarkovLevel{Levels: 5, Window: 10}
	if got := p.Predict(vs); got != 0.95 {
		t.Fatalf("unseen state %v, want persistence", got)
	}
}

func TestEvaluatePerfectPredictor(t *testing.T) {
	s := series([]float64{0.5, 0.5, 0.5, 0.5, 0.5})
	e := Evaluate(LastValue{}, s, 1)
	if e.MAE != 0 || e.RMSE != 0 || e.LevelHitRate != 1 || e.N != 4 {
		t.Fatalf("perfect evaluation %+v", e)
	}
}

func TestEvaluateKnownError(t *testing.T) {
	s := series([]float64{0, 1, 0, 1, 0})
	e := Evaluate(LastValue{}, s, 1)
	if e.MAE != 1 || e.RMSE != 1 {
		t.Fatalf("alternating evaluation %+v", e)
	}
	if e.LevelHitRate != 0 {
		t.Fatalf("hit rate %v, want 0", e.LevelHitRate)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	s := series([]float64{1})
	if e := Evaluate(LastValue{}, s, 5); e.N != 0 {
		t.Fatalf("empty evaluation %+v", e)
	}
}

func TestEvaluateAllAverages(t *testing.T) {
	a := series([]float64{0.5, 0.5, 0.5})
	b := series([]float64{0, 1, 0})
	e := EvaluateAll(LastValue{}, []*timeseries.Series{a, b}, 1)
	if e.N != 4 {
		t.Fatalf("N %d, want 4", e.N)
	}
	if math.Abs(e.MAE-0.5) > 1e-12 { // (0 + 1)/2 per-population mean
		t.Fatalf("MAE %v, want 0.5", e.MAE)
	}
}

func TestBestPicksLowestMAE(t *testing.T) {
	// Slow drift: moving average beats an anti-persistent predictor.
	vs := make([]float64, 200)
	for i := range vs {
		vs[i] = 0.5 + 0.2*math.Sin(float64(i)/30)
	}
	s := []*timeseries.Series{series(vs)}
	p, e := Best(Standard(), s, 20)
	if p == nil || e.N == 0 {
		t.Fatal("no best predictor")
	}
	if e.MAE > 0.05 {
		t.Fatalf("best MAE %v too large for smooth signal", e.MAE)
	}
	// A flat series is predicted exactly.
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 0.4
	}
	if p, e := Best(Standard(), []*timeseries.Series{series(flat)}, 10); p == nil || e.MAE > 1e-9 {
		t.Fatalf("best on flat series: %v, MAE %v", p, e.MAE)
	}
}

func TestBestOnGridVsGoogleLikeSignals(t *testing.T) {
	// Grid-like signal (stable segments, tiny noise): persistence-style
	// predictors should achieve very low error; Google-like (noisy)
	// signals should favour smoothing and incur larger error.
	src := rng.New(5)
	cfg := synth.DefaultGridHost("AuverGrid")
	gridCPU, _ := synth.GridHostSeries(cfg, 2*86400, src)

	noisy := make([]float64, gridCPU.Len())
	for i := range noisy {
		noisy[i] = 0.3 + 0.25*src.Float64()
	}
	google := series(noisy)

	_, gridE := Best(Standard(), []*timeseries.Series{gridCPU}, 12)
	_, googE := Best(Standard(), []*timeseries.Series{google}, 12)
	if gridE.MAE >= googE.MAE {
		t.Fatalf("grid MAE %v should be far below noisy MAE %v", gridE.MAE, googE.MAE)
	}
	if gridE.LevelHitRate < 0.8 {
		t.Fatalf("grid level hit rate %v, want high", gridE.LevelHitRate)
	}
}

func TestEvaluateKMatchesEvaluateAtOne(t *testing.T) {
	vs := make([]float64, 150)
	for i := range vs {
		vs[i] = 0.5 + 0.2*math.Sin(float64(i)/15)
	}
	s := series(vs)
	p := ExpSmoothing{Alpha: 0.4}
	e1 := Evaluate(p, s, 10)
	ek := EvaluateK(p, s, 10, 1)
	if math.Abs(e1.MAE-ek.MAE) > 1e-12 || e1.N != ek.N {
		t.Fatalf("EvaluateK(1) %v != Evaluate %v", ek, e1)
	}
}

func TestEvaluateKErrorGrowsWithHorizon(t *testing.T) {
	// On a drifting signal, forecasting further ahead is harder.
	src := rng.New(33)
	vs := make([]float64, 400)
	level := 0.5
	for i := range vs {
		level += 0.02 * (src.Float64() - 0.5)
		if level < 0 {
			level = 0
		}
		if level > 1 {
			level = 1
		}
		vs[i] = level
	}
	s := series(vs)
	p := LastValue{}
	e1 := EvaluateK(p, s, 20, 1)
	e6 := EvaluateK(p, s, 20, 6)
	if e6.MAE <= e1.MAE {
		t.Fatalf("6-step MAE %v should exceed 1-step %v on a random walk", e6.MAE, e1.MAE)
	}
}

func TestStandardSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Standard() {
		if seen[p.Name()] {
			t.Fatalf("duplicate predictor name %s", p.Name())
		}
		seen[p.Name()] = true
	}
	if len(seen) < 8 {
		t.Fatalf("suite too small: %d", len(seen))
	}
}

// TestEvaluateAllWeighting is the regression for the pooling bug:
// EvaluateAll used to average per-host summaries unweighted while
// reporting the total step count as N, so a 1-step host pulled as hard
// as a 5-step host and the summary did not describe its own N. The
// pooled semantics weight every step equally.
func TestEvaluateAllWeighting(t *testing.T) {
	long := series([]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}) // 5 scored steps, error 0
	short := series([]float64{0, 1})                        // 1 scored step, error 1
	e := EvaluateAll(LastValue{}, []*timeseries.Series{long, short}, 1)
	if e.N != 6 {
		t.Fatalf("N = %d, want 6", e.N)
	}
	if want := 1.0 / 6; math.Abs(e.MAE-want) > 1e-12 {
		t.Errorf("MAE = %v, want pooled %v (unweighted average would give 0.5)", e.MAE, want)
	}
	if want := math.Sqrt(1.0 / 6); math.Abs(e.RMSE-want) > 1e-12 {
		t.Errorf("RMSE = %v, want pooled %v", e.RMSE, want)
	}
	if want := 5.0 / 6; math.Abs(e.LevelHitRate-want) > 1e-12 {
		t.Errorf("LevelHitRate = %v, want pooled %v", e.LevelHitRate, want)
	}
}

// TestEvaluateAllMatchesPooledSingles: pooling by raw sums must equal
// evaluating the concatenation of per-series error streams — checked
// against per-series Evaluate results recombined by their own N.
func TestEvaluateAllMatchesPooledSingles(t *testing.T) {
	s := rng.New(3).Child("pool")
	var pop []*timeseries.Series
	for i := 0; i < 4; i++ {
		vs := make([]float64, 10+10*i)
		for j := range vs {
			vs[j] = s.Float64()
		}
		pop = append(pop, series(vs))
	}
	p := MovingAverage{Window: 3}
	got := EvaluateAll(p, pop, 2)
	var sumAbs, sumSq float64
	var hits, n int
	for _, sr := range pop {
		e := Evaluate(p, sr, 2)
		sumAbs += e.MAE * float64(e.N)
		sumSq += e.RMSE * e.RMSE * float64(e.N)
		hits += int(math.Round(e.LevelHitRate * float64(e.N)))
		n += e.N
	}
	if got.N != n {
		t.Fatalf("N = %d, want %d", got.N, n)
	}
	if math.Abs(got.MAE-sumAbs/float64(n)) > 1e-9 {
		t.Errorf("MAE = %v, want %v", got.MAE, sumAbs/float64(n))
	}
	if math.Abs(got.RMSE-math.Sqrt(sumSq/float64(n))) > 1e-9 {
		t.Errorf("RMSE = %v, want %v", got.RMSE, math.Sqrt(sumSq/float64(n)))
	}
	if math.Abs(got.LevelHitRate-float64(hits)/float64(n)) > 1e-9 {
		t.Errorf("LevelHitRate = %v, want %v", got.LevelHitRate, float64(hits)/float64(n))
	}
}

// TestEvaluateAllKPooled: the k-step population evaluation shares the
// pooled weighting, and k=1 matches EvaluateAll exactly.
func TestEvaluateAllKPooled(t *testing.T) {
	long := series([]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	short := series([]float64{0, 1})
	pop := []*timeseries.Series{long, short}
	if e1, ek := EvaluateAll(LastValue{}, pop, 1), EvaluateAllK(LastValue{}, pop, 1, 1); e1 != ek {
		t.Errorf("EvaluateAllK(k=1) = %+v, want EvaluateAll %+v", ek, e1)
	}
	ek := EvaluateAllK(LastValue{}, pop, 1, 2)
	// long: 4 scored steps (i=1..4), error 0; short: too short for k=2.
	if ek.N != 4 || ek.MAE != 0 {
		t.Errorf("k=2 pooled = %+v, want N=4 MAE=0", ek)
	}
}

// TestUsageLevelNonFinite: a NaN or ±Inf prediction must land in a
// defined level instead of Go's unspecified conversion.
func TestUsageLevelNonFinite(t *testing.T) {
	if usageLevel(math.NaN()) != 0 {
		t.Error("usageLevel(NaN) != 0")
	}
	if usageLevel(math.Inf(-1)) != 0 {
		t.Error("usageLevel(-Inf) != 0")
	}
	if usageLevel(math.Inf(1)) != 4 {
		t.Error("usageLevel(+Inf) != 4")
	}
	for v, want := range map[float64]int{0: 0, 0.19: 0, 0.2: 1, 0.99: 4, 1: 4, -0.5: 0, 1.5: 4} {
		if got := usageLevel(v); got != want {
			t.Errorf("usageLevel(%v) = %d, want %d", v, got, want)
		}
	}
}
