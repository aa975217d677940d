package synth

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

func hourlyCounts(times []int64, horizon int64) []float64 {
	n := int(horizon / 3600)
	if n == 0 {
		n = 1
	}
	counts := make([]float64, n)
	for _, t := range times {
		h := int(t / 3600)
		if h >= 0 && h < n {
			counts[h]++
		}
	}
	return counts
}

func TestPoissonMean(t *testing.T) {
	s := rng.New(1)
	for _, mean := range []float64{0.5, 5, 20, 100, 600} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(Poisson(mean, s))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.1 {
			t.Errorf("Poisson(%v) mean %v", mean, got)
		}
	}
	if Poisson(0, s) != 0 || Poisson(-1, s) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestArrivalsSortedAndBounded(t *testing.T) {
	cfg := ArrivalConfig{PerHour: 100, DiurnalAmp: 0.3, LogSigma: 0.5}
	horizon := int64(48 * 3600)
	ts := Arrivals(cfg, horizon, rng.New(2))
	if len(ts) == 0 {
		t.Fatal("no arrivals")
	}
	for i, v := range ts {
		if v < 0 || v >= horizon {
			t.Fatalf("arrival %d out of range: %d", i, v)
		}
		if i > 0 && v < ts[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	// Rate should be in the right ballpark.
	rate := float64(len(ts)) / 48
	if rate < 60 || rate > 160 {
		t.Fatalf("mean rate %v, want ~100", rate)
	}
}

func TestArrivalsEmptyCases(t *testing.T) {
	if Arrivals(ArrivalConfig{PerHour: 10}, 0, rng.New(1)) != nil {
		t.Error("zero horizon should give nil")
	}
	if Arrivals(ArrivalConfig{}, 3600, rng.New(1)) != nil {
		t.Error("zero rate should give nil")
	}
}

func TestArrivalFairnessContrast(t *testing.T) {
	// The core Table I property: Google's submission process is far
	// fairer than any Grid's.
	horizon := int64(14 * 86400)
	gCfg := DefaultGoogleConfig(horizon).Arrival
	g := hourlyCounts(Arrivals(gCfg, horizon, rng.New(3)), horizon)
	gf := stats.JainFairness(g)
	if gf < 0.85 || gf > 0.99 {
		t.Errorf("Google fairness %v, want ~0.94", gf)
	}
	for _, sys := range []GridSystem{AuverGrid, NorduGrid, SHARCNET, MetaCentrum} {
		cnt := hourlyCounts(Arrivals(sys.Arrival, horizon, rng.New(4)), horizon)
		f := stats.JainFairness(cnt)
		if f >= gf-0.2 {
			t.Errorf("%s fairness %v should be far below Google's %v", sys.Name, f, gf)
		}
	}
	// ANL has the steadiest Grid submissions but still well below Google.
	anl := stats.JainFairness(hourlyCounts(Arrivals(ANL.Arrival, horizon, rng.New(5)), horizon))
	if anl >= gf {
		t.Errorf("ANL fairness %v should be below Google's %v", anl, gf)
	}
}

func TestArrivalRampReducesFirstHours(t *testing.T) {
	cfg := ArrivalConfig{PerHour: 500, RampHours: 3}
	ts := Arrivals(cfg, 24*3600, rng.New(6))
	counts := hourlyCounts(ts, 24*3600)
	if counts[0] >= counts[6]/2 {
		t.Errorf("ramp-up hour 0 count %v vs steady %v", counts[0], counts[6])
	}
}

const testHorizon = int64(6 * 3600)

func googleTasks(t *testing.T) []trace.Task {
	t.Helper()
	cfg := DefaultGoogleConfig(testHorizon)
	cfg.MaxTasksPerJob = 500
	tasks := GenerateGoogleTasks(cfg, rng.New(7))
	if len(tasks) == 0 {
		t.Fatal("no tasks generated")
	}
	return tasks
}

func TestGoogleTasksWellFormed(t *testing.T) {
	tasks := googleTasks(t)
	jobs := map[int64]bool{}
	for i, task := range tasks {
		if task.Duration < 1 {
			t.Fatalf("task %d has duration %d", i, task.Duration)
		}
		if task.Priority < trace.MinPriority || task.Priority > trace.MaxPriority {
			t.Fatalf("task %d priority %d", i, task.Priority)
		}
		if task.CPUReq <= 0 || task.CPUReq > 1 || task.MemReq <= 0 || task.MemReq > 1 {
			t.Fatalf("task %d resources cpu=%v mem=%v", i, task.CPUReq, task.MemReq)
		}
		if i > 0 && task.Submit < tasks[i-1].Submit {
			t.Fatal("tasks not sorted by submission")
		}
		jobs[task.JobID] = true
	}
	ratio := float64(len(tasks)) / float64(len(jobs))
	if ratio < 5 || ratio > 120 {
		t.Errorf("tasks per job %v, want heavy-tailed mean in [5,120]", ratio)
	}
}

func TestGooglePriorityClusters(t *testing.T) {
	tasks := googleTasks(t)
	jobs := map[int64]int{}
	for _, task := range tasks {
		jobs[task.JobID] = task.Priority
	}
	var groups [3]int
	for _, p := range jobs {
		groups[trace.GroupOf(p)]++
	}
	total := len(jobs)
	lowFrac := float64(groups[0]) / float64(total)
	if lowFrac < 0.6 {
		t.Errorf("low-priority job fraction %v, want most jobs low (Fig 2)", lowFrac)
	}
	if groups[1] == 0 || groups[2] == 0 {
		t.Error("middle/high priority groups empty")
	}
}

func TestGoogleTaskLengthCalibration(t *testing.T) {
	tasks := googleTasks(t)
	lengths := make([]float64, len(tasks))
	for i, task := range tasks {
		lengths[i] = float64(task.Duration)
	}
	ecdf := stats.NewECDF(lengths)
	// Paper: ~55% of tasks < 10 min, ~90% < 1 h, ~94% < 3 h.
	if got := ecdf.Eval(600); got < 0.35 || got > 0.8 {
		t.Errorf("P(task<10min) = %v, want roughly 0.55", got)
	}
	if got := ecdf.Eval(3600); got < 0.75 || got > 0.98 {
		t.Errorf("P(task<1h) = %v, want roughly 0.90", got)
	}
	if got := ecdf.Eval(3 * 3600); got < 0.88 {
		t.Errorf("P(task<3h) = %v, want >= 0.88", got)
	}
	// Mean task length is pulled to hours by the service tail.
	mean := stats.Mean(lengths)
	if mean < 1800 || mean > 12*3600 {
		t.Errorf("mean task length %v s, want hours-scale", mean)
	}
	// Mass-count disparity: strongly Pareto (paper: 6/94).
	mc := stats.NewMassCount(lengths)
	items, mass := mc.JointRatio()
	if items > 18 {
		t.Errorf("joint ratio %v/%v, want strongly disparate (items <= 18)", items, mass)
	}
}

func TestGoogleJobsFromTasks(t *testing.T) {
	tasks := googleTasks(t)
	jobs := GoogleJobsFromTasks(tasks)
	if len(jobs) == 0 {
		t.Fatal("no jobs")
	}
	seen := map[int64]bool{}
	var totalTasks int
	for i, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job %d", j.ID)
		}
		seen[j.ID] = true
		if j.End < j.Submit {
			t.Fatalf("job %d negative length", j.ID)
		}
		if i > 0 && j.Submit < jobs[i-1].Submit {
			t.Fatal("jobs not sorted")
		}
		totalTasks += j.TaskCount
	}
	if totalTasks != len(tasks) {
		t.Fatalf("task count mismatch: %d vs %d", totalTasks, len(tasks))
	}

	// Paper Fig 3: most Google jobs are short; service tail exists.
	lengths := make([]float64, len(jobs))
	for i, j := range jobs {
		lengths[i] = float64(j.Length())
	}
	ecdf := stats.NewECDF(lengths)
	if got := ecdf.Eval(1000); got < 0.55 {
		t.Errorf("P(job<1000s) = %v, want majority short", got)
	}
	if stats.Max(lengths) < 86400 {
		t.Error("no long-running service jobs in the tail")
	}
}

func TestGoogleMachines(t *testing.T) {
	ms := GoogleMachines(2000, rng.New(8))
	if len(ms) != 2000 {
		t.Fatalf("got %d machines", len(ms))
	}
	cpuClasses := map[float64]int{}
	memClasses := map[float64]int{}
	for i, m := range ms {
		if m.ID != i {
			t.Fatalf("machine %d has ID %d", i, m.ID)
		}
		if m.PageCache != 1 {
			t.Fatal("page cache capacity must be 1")
		}
		cpuClasses[m.CPU]++
		memClasses[m.Memory]++
	}
	if len(cpuClasses) != 3 {
		t.Fatalf("CPU classes %v, want {0.25, 0.5, 1}", cpuClasses)
	}
	if len(memClasses) != 4 {
		t.Fatalf("memory classes %v, want 4 groups", memClasses)
	}
	if cpuClasses[0.5] < cpuClasses[1.0] {
		t.Error("0.5-CPU machines should dominate the park")
	}
}

func TestGridGenerate(t *testing.T) {
	horizon := int64(3 * 86400)
	for _, sys := range append(append([]GridSystem{}, GridSystems...), DAS2) {
		jobs := sys.Generate(horizon, rng.New(9))
		if len(jobs) == 0 {
			t.Fatalf("%s: no jobs", sys.Name)
		}
		for i, j := range jobs {
			if j.Length() < 1 {
				t.Fatalf("%s job %d has length %d", sys.Name, j.ID, j.Length())
			}
			if j.NumCPUs < 1 {
				t.Fatalf("%s job %d procs %v", sys.Name, j.ID, j.NumCPUs)
			}
			if j.MemAvg <= 0 {
				t.Fatalf("%s job %d memory %v", sys.Name, j.ID, j.MemAvg)
			}
			if i > 0 && j.Submit < jobs[i-1].Submit {
				t.Fatalf("%s jobs not sorted", sys.Name)
			}
		}
	}
}

func TestGridVsGoogleJobLengths(t *testing.T) {
	// Fig 3's headline: Google jobs are much shorter than Grid jobs.
	gTasks := googleTasks(t)
	gJobs := GoogleJobsFromTasks(gTasks)
	gLens := make([]float64, len(gJobs))
	for i, j := range gJobs {
		gLens[i] = float64(j.Length())
	}
	gMedian := stats.Quantile(gLens, 0.5)

	for _, sys := range GridSystems {
		jobs := sys.Generate(3*86400, rng.New(10))
		lens := make([]float64, len(jobs))
		for i, j := range jobs {
			lens[i] = float64(j.Length())
		}
		median := stats.Quantile(lens, 0.5)
		if median < 4*gMedian {
			t.Errorf("%s median %v not much longer than Google's %v", sys.Name, median, gMedian)
		}
		if frac := stats.NewECDF(lens).Eval(1000); frac > 0.4 {
			t.Errorf("%s has %v of jobs under 1000s; grids should be long", sys.Name, frac)
		}
	}
}

func TestGridCPUUtilisationContrast(t *testing.T) {
	// Fig 6a: AuverGrid utilisation ~1 (serial, busy); DAS-2 spreads
	// over 1-5 (parallel, partially busy); Google below 1.
	horizon := int64(2 * 86400)
	util := func(jobs []trace.Job) []float64 {
		out := make([]float64, 0, len(jobs))
		for _, j := range jobs {
			if j.Length() > 0 {
				out = append(out, j.CPUTime/float64(j.Length()))
			}
		}
		return out
	}
	ag := util(AuverGrid.Generate(horizon, rng.New(11)))
	das := util(DAS2.Generate(horizon, rng.New(12)))
	agMed := stats.Quantile(ag, 0.5)
	dasMed := stats.Quantile(das, 0.5)
	if agMed < 0.7 || agMed > 1.1 {
		t.Errorf("AuverGrid median utilisation %v, want ~0.9", agMed)
	}
	if dasMed < 0.5 {
		t.Errorf("DAS-2 median utilisation %v, want > 0.5 (parallel jobs)", dasMed)
	}
	if stats.Quantile(das, 0.9) < 2 {
		t.Errorf("DAS-2 90th pct utilisation %v, want multi-processor (>2)", stats.Quantile(das, 0.9))
	}
}

func TestSystemByName(t *testing.T) {
	paperOrder := []string{"AuverGrid", "NorduGrid", "SHARCNET", "ANL", "RICC", "MetaCentrum", "LLNL-Atlas", "DAS-2"}
	for _, name := range paperOrder {
		g, err := SystemByName(name)
		if err != nil || g.Name != name {
			t.Errorf("SystemByName(%q) = %v, %v", name, g.Name, err)
		}
	}
	// GridSystems holds the seven Table I systems in paper order; DAS-2
	// is kept apart and comes last.
	var names []string
	for _, g := range append(append([]GridSystem{}, GridSystems...), DAS2) {
		names = append(names, g.Name)
	}
	if !slices.Equal(names, paperOrder) {
		t.Errorf("grid systems %v, want paper order %v", names, paperOrder)
	}
	if _, err := SystemByName("Nope"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestGridHostSeries(t *testing.T) {
	cfg := DefaultGridHost("AuverGrid")
	horizon := int64(5 * 86400)
	cpu, mem := GridHostSeries(cfg, horizon, rng.New(13))
	if cpu.Len() != int(horizon/300) || mem.Len() != cpu.Len() {
		t.Fatalf("series lengths %d/%d", cpu.Len(), mem.Len())
	}
	for i, v := range cpu.Values {
		if v < 0 || v > 1 || mem.Values[i] < 0 || mem.Values[i] > 1 {
			t.Fatal("host series out of [0,1]")
		}
	}
	// Grid hosts: CPU above memory (Section IV.B.2 observation).
	if stats.Mean(cpu.Values) <= stats.Mean(mem.Values) {
		t.Errorf("grid CPU mean %v should exceed memory mean %v",
			stats.Mean(cpu.Values), stats.Mean(mem.Values))
	}
	// Tiny measurement noise, long stable segments.
	if n := cpu.Noise(2); n > 0.01 {
		t.Errorf("grid CPU noise %v, want ~0.001", n)
	}
	if ac := cpu.Autocorrelation(1); ac < 0.8 {
		t.Errorf("grid CPU autocorrelation %v, want high stability", ac)
	}
}

func TestGridHostSharcnetProfile(t *testing.T) {
	cfg := DefaultGridHost("SHARCNET")
	if cfg.SegmentMeanSec >= DefaultGridHost("AuverGrid").SegmentMeanSec {
		t.Error("SHARCNET should switch jobs faster than AuverGrid")
	}
	cpu, _ := GridHostSeries(cfg, 86400, rng.New(14))
	if cpu.Len() == 0 {
		t.Fatal("empty series")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cfg := DefaultGoogleConfig(3600)
	a := GenerateGoogleTasks(cfg, rng.New(42))
	b := GenerateGoogleTasks(cfg, rng.New(42))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs between identical seeds", i)
		}
	}
}
