package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (+-%v)", what, got, want, tol)
	}
}

func TestPriorityHistogram(t *testing.T) {
	jobs := []trace.Job{
		{ID: 1, Priority: 1}, {ID: 2, Priority: 1}, {ID: 3, Priority: 12},
		{ID: 4, Priority: 0},  // untracked priority: ignored
		{ID: 5, Priority: 13}, // out of range: ignored
	}
	tasks := []trace.Task{
		{JobID: 1, Priority: 1}, {JobID: 1, Priority: 1}, {JobID: 3, Priority: 12},
	}
	jc, tc := PriorityHistogram(jobs, tasks)
	if jc[1] != 2 || jc[12] != 1 {
		t.Fatalf("job counts %v", jc)
	}
	if tc[1] != 2 || tc[12] != 1 {
		t.Fatalf("task counts %v", tc)
	}
	var total int
	for _, c := range jc {
		total += c
	}
	if total != 3 {
		t.Fatalf("out-of-range priorities counted: %d", total)
	}
}

func TestGroupShares(t *testing.T) {
	jobs := []trace.Job{
		{Priority: 1}, {Priority: 2}, {Priority: 3}, // low
		{Priority: 6},  // middle
		{Priority: 10}, // high
	}
	shares := GroupShares(jobs)
	approx(t, shares[0], 0.6, 1e-12, "low share")
	approx(t, shares[1], 0.2, 1e-12, "middle share")
	approx(t, shares[2], 0.2, 1e-12, "high share")
	empty := GroupShares(nil)
	if empty[0] != 0 || empty[1] != 0 || empty[2] != 0 {
		t.Fatal("empty input should give zero shares")
	}
}

func TestJobLengthsAndCDF(t *testing.T) {
	jobs := []trace.Job{
		{Submit: 0, End: 100},
		{Submit: 50, End: 250},
		{Submit: 100, End: 1100},
	}
	lens := JobLengths(jobs)
	if len(lens) != 3 || lens[0] != 100 || lens[1] != 200 || lens[2] != 1000 {
		t.Fatalf("lengths %v", lens)
	}
	cdf := stats.NewECDF(JobLengths(jobs))
	approx(t, cdf.Eval(200), 2.0/3, 1e-12, "CDF at 200")
}

func TestTaskLengths(t *testing.T) {
	tasks := []trace.Task{{Duration: 10}, {Duration: 20}}
	lens := TaskLengths(tasks)
	if len(lens) != 2 || lens[0] != 10 || lens[1] != 20 {
		t.Fatalf("task lengths %v", lens)
	}
}

func TestSummarizeMassCount(t *testing.T) {
	// Nine 1s and one 91: 10% of items hold ~90% of mass.
	values := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 91}
	s := SummarizeMassCount(values)
	approx(t, s.JointItems, 10, 0.5, "joint items")
	approx(t, s.JointMass, 90, 0.5, "joint mass")
	if s.MMDistance <= 0 {
		t.Fatal("mm-distance should be positive")
	}
	approx(t, s.Mean, 10, 1e-9, "mean")
	approx(t, s.Max, 91, 0, "max")
	if s.N != 10 {
		t.Fatalf("N = %d", s.N)
	}
	zero := SummarizeMassCount(nil)
	if zero.N != 0 {
		t.Fatal("empty input should give zero summary")
	}
}

func TestSubmissionIntervals(t *testing.T) {
	jobs := []trace.Job{
		{Submit: 100}, {Submit: 0}, {Submit: 40}, // unsorted on purpose
	}
	got := SubmissionIntervals(jobs)
	if len(got) != 2 || got[0] != 40 || got[1] != 60 {
		t.Fatalf("intervals %v", got)
	}
	if SubmissionIntervals(jobs[:1]) != nil {
		t.Fatal("single job should give nil intervals")
	}
}

func TestHourlyCountsAndRates(t *testing.T) {
	jobs := []trace.Job{
		{Submit: 0}, {Submit: 10}, {Submit: 3599}, // hour 0: 3
		{Submit: 3600},                   // hour 1: 1
		{Submit: 2 * 3600},               // hour 2: 1
		{Submit: 4 * 3600}, {Submit: -5}, // out of horizon: ignored
	}
	counts := HourlyCounts(jobs, 3*3600)
	if len(counts) != 3 || counts[0] != 3 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("hourly counts %v", counts)
	}
	rs := SubmissionRates(jobs, 3*3600)
	approx(t, rs.Max, 3, 0, "max rate")
	approx(t, rs.Min, 1, 0, "min rate")
	approx(t, rs.Avg, 5.0/3, 1e-12, "avg rate")
	if rs.Fairness <= 0 || rs.Fairness > 1 {
		t.Fatalf("fairness %v", rs.Fairness)
	}
}

func TestCPUUsageFormula4(t *testing.T) {
	jobs := []trace.Job{
		{Submit: 0, End: 100, CPUTime: 50},       // usage 0.5
		{Submit: 0, End: 100, CPUTime: 400},      // usage 4 (parallel)
		{Submit: 10, End: 10, CPUTime: 99999999}, // zero length: skipped
	}
	got := CPUUsage(jobs)
	if len(got) != 2 || got[0] != 0.5 || got[1] != 4 {
		t.Fatalf("cpu usage %v", got)
	}
}

func TestMemoryUsageMB(t *testing.T) {
	jobs := []trace.Job{{MemAvg: 0.01}, {MemAvg: 0.05}}
	got32 := MemoryUsageMB(jobs, 32)
	approx(t, got32[0], 0.01*32*1024, 1e-9, "32GB scaling")
	got64 := MemoryUsageMB(jobs, 64)
	approx(t, got64[1], 0.05*64*1024, 1e-9, "64GB scaling")
	grid := []trace.Job{{MemAvg: 512}}
	raw := MemoryUsageMB(grid, 0)
	approx(t, raw[0], 512, 0, "grid passthrough")
}

func TestHourOfDayProfile(t *testing.T) {
	// Two days; hour 9 busy on both days, everything else quiet.
	var jobs []trace.Job
	for day := int64(0); day < 2; day++ {
		base := day * 86400
		for i := 0; i < 10; i++ {
			jobs = append(jobs, trace.Job{Submit: base + 9*3600 + int64(i)})
		}
		jobs = append(jobs, trace.Job{Submit: base + 3*3600})
	}
	profile, ptm := HourOfDayProfile(jobs, 2*86400)
	if profile[9] != 10 {
		t.Fatalf("hour 9 mean %v, want 10", profile[9])
	}
	if profile[3] != 1 {
		t.Fatalf("hour 3 mean %v, want 1", profile[3])
	}
	if ptm < 10 {
		t.Fatalf("peak-to-mean %v, want strongly peaked", ptm)
	}
	// Flat stream: peak-to-mean near 1.
	var flat []trace.Job
	for h := int64(0); h < 48; h++ {
		for i := 0; i < 5; i++ {
			flat = append(flat, trace.Job{Submit: h*3600 + int64(i*100)})
		}
	}
	_, flatPTM := HourOfDayProfile(flat, 2*86400)
	if flatPTM > 1.05 {
		t.Fatalf("flat peak-to-mean %v", flatPTM)
	}
	if _, z := HourOfDayProfile(nil, 86400); z != 0 {
		t.Fatalf("empty profile peak-to-mean %v", z)
	}
}

// Integration: the paper's headline Section III comparisons hold on
// synthetic data end to end.
func TestGoogleVsGridHeadlines(t *testing.T) {
	horizon := int64(4 * 86400)
	gcfg := synth.DefaultGoogleConfig(horizon)
	gcfg.JobsPerHour = 80
	gcfg.Arrival.PerHour = 80
	gcfg.MaxTasksPerJob = 300
	gTasks := synth.GenerateGoogleTasks(gcfg, rng.New(1))
	gJobs := synth.GoogleJobsFromTasks(gTasks)
	agJobs := synth.AuverGrid.Generate(horizon, rng.New(2))

	// Fig 3: Google jobs shorter.
	gCDF := stats.NewECDF(JobLengths(gJobs))
	agCDF := stats.NewECDF(JobLengths(agJobs))
	if gCDF.Eval(1000) <= agCDF.Eval(1000) {
		t.Errorf("Google P(len<1000)=%v should exceed AuverGrid's %v",
			gCDF.Eval(1000), agCDF.Eval(1000))
	}

	// Fig 4: Google task lengths more Pareto than AuverGrid's.
	gMC := SummarizeMassCount(TaskLengths(gTasks))
	agMC := SummarizeMassCount(JobLengths(agJobs))
	if gMC.JointItems >= agMC.JointItems {
		t.Errorf("Google joint items %v should be below AuverGrid's %v",
			gMC.JointItems, agMC.JointItems)
	}

	// Fig 5 / Table I: Google submits more often and more steadily.
	gRates := SubmissionRates(gJobs, horizon)
	agRates := SubmissionRates(agJobs, horizon)
	if gRates.Avg <= agRates.Avg {
		t.Errorf("Google rate %v should exceed AuverGrid %v", gRates.Avg, agRates.Avg)
	}
	if gRates.Fairness <= agRates.Fairness {
		t.Errorf("Google fairness %v should exceed AuverGrid %v",
			gRates.Fairness, agRates.Fairness)
	}
	gInt := SubmissionIntervals(gJobs)
	agInt := SubmissionIntervals(agJobs)
	if len(gInt) == 0 || len(agInt) == 0 {
		t.Fatal("no intervals")
	}

	// Fig 6: Google per-job CPU below Grid's (single processor).
	gCPU := CPUUsage(gJobs)
	agCPU := CPUUsage(agJobs)
	gMed := quantile(gCPU, 0.5)
	agMed := quantile(agCPU, 0.5)
	if gMed >= agMed {
		t.Errorf("Google median CPU %v should be below AuverGrid %v", gMed, agMed)
	}
}

func quantile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[int(p*float64(len(cp)-1))]
}
