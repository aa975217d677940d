// Benchmarks: one per table and figure of the paper (regenerating the
// artifact and reporting its headline metric), plus ablation benches
// for the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gridsim"
	"repro/internal/hostload"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *core.Context
)

// sharedBenchCtx memoizes the workloads and the simulation so each
// bench measures its analysis, not the shared setup.
func sharedBenchCtx(b *testing.B) *core.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx = core.NewContext(core.QuickConfig())
		// Pre-build the heavyweight artifacts outside the timed loop.
		benchCtx.GoogleTasks()
		if _, err := benchCtx.Sim(); err != nil {
			b.Fatal(err)
		}
	})
	return benchCtx
}

// benchExperiment times one experiment and reports a headline metric.
func benchExperiment(b *testing.B, id string, metric string) {
	b.ReportAllocs()
	ctx := sharedBenchCtx(b)
	exp, err := core.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	if metric != "" && last != nil {
		if v, ok := last.Metrics[metric]; ok {
			b.ReportMetric(v, metric)
		}
	}
}

func BenchmarkFig2PriorityHistogram(b *testing.B) {
	benchExperiment(b, "fig2", "low_priority_job_share")
}

func BenchmarkFig3JobLengthCDF(b *testing.B) {
	benchExperiment(b, "fig3", "google_P_len_lt_1000s")
}

func BenchmarkFig4TaskLengthMassCount(b *testing.B) {
	benchExperiment(b, "fig4", "google_joint_items")
}

func BenchmarkFig5SubmissionIntervalCDF(b *testing.B) {
	benchExperiment(b, "fig5", "google_median_interval_s")
}

func BenchmarkTable1SubmissionRates(b *testing.B) {
	benchExperiment(b, "table1", "Google_fairness")
}

func BenchmarkFig6ResourceUsageCDF(b *testing.B) {
	benchExperiment(b, "fig6", "google_median_cpu")
}

func BenchmarkFig7MaxLoadPDF(b *testing.B) {
	benchExperiment(b, "fig7", "mem_mean_max_over_capacity")
}

func BenchmarkFig8QueueState(b *testing.B) {
	benchExperiment(b, "fig8", "abnormal_fraction")
}

func BenchmarkFig9QueueSegmentMassCount(b *testing.B) {
	benchExperiment(b, "fig9", "")
}

func BenchmarkFig10UsageLevelSnapshot(b *testing.B) {
	benchExperiment(b, "fig10", "idle_share_fig10a")
}

func BenchmarkTable2CPULevelDurations(b *testing.B) {
	benchExperiment(b, "table2", "avg_min_level0")
}

func BenchmarkTable3MemLevelDurations(b *testing.B) {
	benchExperiment(b, "table3", "avg_min_level0")
}

func BenchmarkFig11CPUUsageMassCount(b *testing.B) {
	benchExperiment(b, "fig11", "mean_pct_all")
}

func BenchmarkFig12MemUsageMassCount(b *testing.B) {
	benchExperiment(b, "fig12", "mean_pct_all")
}

func BenchmarkFig13HostLoadComparison(b *testing.B) {
	benchExperiment(b, "fig13", "noise_ratio_google_over_auvergrid")
}

// ---------------------------------------------------------------------------
// Pipeline benches: full-registry wall time, serial vs parallel. Each
// iteration builds a fresh context so artifact generation (the
// dominant cost) is measured, not just the analyses.

func benchRunAll(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := core.NewContext(core.QuickConfig())
		results, err := core.RunExperiments(context.Background(), ctx, core.Experiments(), core.RunOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(core.Experiments()) {
			b.Fatalf("got %d results", len(results))
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)   { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }

// BenchmarkRunAllParallelResilient is BenchmarkRunAllParallel with
// every robustness feature armed (per-experiment deadline, keep-going
// degradation) but nothing failing — the delta between the two is the
// fault-tolerance overhead on a healthy run (budget: <5%).
func BenchmarkRunAllParallelResilient(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := core.NewContext(core.QuickConfig())
		results, err := core.RunExperiments(context.Background(), ctx, core.Experiments(), core.RunOptions{
			Workers:    0,
			ExpTimeout: time.Hour,
			KeepGoing:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(core.Experiments()) {
			b.Fatalf("got %d results", len(results))
		}
	}
}

// BenchmarkRunAllCheckpointWarm measures a fully warm resume: every
// experiment is served from its checkpoint, so the iteration cost is
// pure load/verify — the ratio to BenchmarkRunAllParallel is the
// warm-start speedup an interrupted run gets back.
func BenchmarkRunAllCheckpointWarm(b *testing.B) {
	b.ReportAllocs()
	store, err := ckpt.NewStore(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	coord := replica.New(replica.Config{Store: store})
	cold := core.NewContext(core.QuickConfig())
	if _, err := core.RunExperiments(context.Background(), cold, core.Experiments(), core.RunOptions{Workers: 0, Ckpt: coord}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := core.NewContext(core.QuickConfig())
		results, err := core.RunExperiments(context.Background(), ctx, core.Experiments(), core.RunOptions{Workers: 0, Ckpt: coord})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(core.Experiments()) {
			b.Fatalf("got %d results", len(results))
		}
	}
}

// BenchmarkRunAllParallelInstrumented is BenchmarkRunAllParallel with a
// full observability recorder attached — the delta between the two is
// the end-to-end instrumentation overhead (budget: <5%).
func BenchmarkRunAllParallelInstrumented(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := core.NewContext(core.QuickConfig())
		ctx.SetRecorder(obs.NewRecorder())
		results, err := core.RunExperiments(context.Background(), ctx, core.Experiments(), core.RunOptions{Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(core.Experiments()) {
			b.Fatalf("got %d results", len(results))
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks: the hot paths underneath the figures.

// BenchmarkGoogleWorkloadGeneration times the Google workload in the
// shapes the run builds: QuickConfig's workload cell (paper rate, one
// day, jobs capped at 80 tasks), its simulation cell (40 machines, two
// days, warm start) and serve-mixed's cold-scenario simulation cell (8
// machines, one day), the sparsest, where the sort widens its buckets
// and finishes each with an insertion sort.
func BenchmarkGoogleWorkloadGeneration(b *testing.B) {
	quick := core.QuickConfig()
	workload := synth.DefaultGoogleConfig(quick.WorkloadHorizon)
	workload.MaxTasksPerJob = quick.WorkloadMaxTasksPerJob
	for _, bc := range []struct {
		name string
		cfg  synth.GoogleConfig
	}{
		{"quick-workload", workload},
		{"quick-sim", synth.ScaledGoogleConfig(quick.Machines, quick.SimHorizon)},
		{"cold-8-machines", synth.ScaledGoogleConfig(8, 86400)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tasks := synth.GenerateGoogleTasks(bc.cfg, rng.New(uint64(i+1)))
				if len(tasks) == 0 {
					b.Fatal("no tasks")
				}
			}
		})
	}
}

func BenchmarkClusterSimulation(b *testing.B) {
	b.ReportAllocs()
	machines := synth.GoogleMachines(25, rng.New(1))
	horizon := int64(86400)
	gcfg := synth.ScaledGoogleConfig(25, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, rng.New(2))
	cfg := cluster.DefaultConfig(machines, horizon)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Simulate(cfg, tasks, rng.New(uint64(i+3))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMassCount(b *testing.B) {
	b.ReportAllocs()
	s := rng.New(1)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = s.ExpFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := stats.NewMassCount(xs)
		mc.JointRatio()
		mc.MMDistance()
	}
}

func BenchmarkMeanFilterNoise(b *testing.B) {
	b.ReportAllocs()
	s := rng.New(1)
	vs := make([]float64, 4032) // 14 days of 5-minute samples
	for i := range vs {
		vs[i] = s.Float64()
	}
	ts := &timeseries.Series{Start: 0, Step: 300, Values: vs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Noise(2)
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (design choices from DESIGN.md §5).

// ablationSim runs a small simulation with the given config tweak and
// returns the result.
func ablationSim(b *testing.B, tweak func(*cluster.Config)) *cluster.Result {
	b.Helper()
	const n = 30
	horizon := int64(86400)
	s := rng.New(99)
	machines := synth.GoogleMachines(n, s.Child("m"))
	gcfg := synth.ScaledGoogleConfig(n, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("w"))
	cfg := cluster.DefaultConfig(machines, horizon)
	tweak(&cfg)
	res, err := cluster.Simulate(cfg, tasks, s.Child("sim"))
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// maxCPUFraction reports the mean per-machine (max load / capacity) —
// the Fig 7 shape a placement policy perturbs.
func maxCPUFraction(res *cluster.Result) float64 {
	var fr []float64
	for _, m := range res.Machines {
		fr = append(fr, stats.Max(m.CPU().Values)/m.Machine.CPU)
	}
	return stats.Mean(fr)
}

func benchPlacement(b *testing.B, pol cluster.Policy) {
	b.ReportAllocs()
	var last *cluster.Result
	for i := 0; i < b.N; i++ {
		last = ablationSim(b, func(c *cluster.Config) { c.Placement = pol })
	}
	b.ReportMetric(maxCPUFraction(last), "mean_max_cpu_frac")
}

func BenchmarkAblationPlacementBalanced(b *testing.B) { benchPlacement(b, cluster.Balanced) }
func BenchmarkAblationPlacementBestFit(b *testing.B)  { benchPlacement(b, cluster.BestFit) }
func BenchmarkAblationPlacementRandom(b *testing.B)   { benchPlacement(b, cluster.Random) }

func benchPreemption(b *testing.B, on bool) {
	b.ReportAllocs()
	var last *cluster.Result
	for i := 0; i < b.N; i++ {
		last = ablationSim(b, func(c *cluster.Config) { c.Preemption = on })
	}
	b.ReportMetric(last.Stats.AbnormalFraction(), "abnormal_fraction")
	b.ReportMetric(float64(last.Stats.Preemptions), "preemptions")
}

func BenchmarkAblationPreemptionOn(b *testing.B)  { benchPreemption(b, true) }
func BenchmarkAblationPreemptionOff(b *testing.B) { benchPreemption(b, false) }

func benchArrival(b *testing.B, diurnal, sigma float64) {
	b.ReportAllocs()
	horizon := int64(7 * 86400)
	cfg := synth.ArrivalConfig{PerHour: 100, DiurnalAmp: diurnal, LogSigma: sigma}
	var fairness float64
	for i := 0; i < b.N; i++ {
		ts := synth.Arrivals(cfg, horizon, rng.New(uint64(i+1)))
		jobs := make([]trace.Job, len(ts))
		for j, t := range ts {
			jobs[j] = trace.Job{Submit: t}
		}
		fairness = workload.SubmissionRates(jobs, horizon).Fairness
	}
	b.ReportMetric(fairness, "fairness")
}

func BenchmarkAblationArrivalFlat(b *testing.B)    { benchArrival(b, 0, 0) }
func BenchmarkAblationArrivalDiurnal(b *testing.B) { benchArrival(b, 0.5, 1.0) }

func benchSampling(b *testing.B, period int64) {
	b.ReportAllocs()
	var avgMin float64
	for i := 0; i < b.N; i++ {
		res := ablationSim(b, func(c *cluster.Config) { c.SamplePeriod = period })
		durs := hostload.LevelDurations(res.Machines, hostload.CPUUsage, trace.LowPriority)
		var all []float64
		for _, ds := range durs {
			all = append(all, ds...)
		}
		avgMin = stats.Mean(all) / 60
	}
	b.ReportMetric(avgMin, "avg_level_duration_min")
}

func BenchmarkAblationSampling1Min(b *testing.B)  { benchSampling(b, 60) }
func BenchmarkAblationSampling5Min(b *testing.B)  { benchSampling(b, 300) }
func BenchmarkAblationSampling15Min(b *testing.B) { benchSampling(b, 900) }

// Placement-constraint ablation: constraints concentrate load on the
// bigger machine classes (Sharma et al.'s observation, cited by the
// paper as a driver of utilisation shifts).
func benchConstraints(b *testing.B, strip bool) {
	b.ReportAllocs()
	const n = 30
	horizon := int64(86400)
	s := rng.New(123)
	machines := synth.GoogleMachines(n, s.Child("m"))
	gcfg := synth.ScaledGoogleConfig(n, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("w"))
	if strip {
		for i := range tasks {
			tasks[i].MinCPUClass = 0
		}
	}
	var last *cluster.Result
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig(machines, horizon)
		res, err := cluster.Simulate(cfg, tasks, rng.New(uint64(i+7)))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Load on the top-class machines relative to the small ones.
	var big, small []float64
	for _, m := range last.Machines {
		mean := stats.Mean(m.CPU().Values) / m.Machine.CPU
		if m.Machine.CPU == 1.0 {
			big = append(big, mean)
		} else if m.Machine.CPU == 0.25 {
			small = append(small, mean)
		}
	}
	if len(big) > 0 && len(small) > 0 {
		b.ReportMetric(stats.Mean(big)/stats.Mean(small), "big_over_small_load")
	}
	b.ReportMetric(float64(last.Stats.NeverScheduled), "never_scheduled")
}

func BenchmarkAblationConstraintsOn(b *testing.B)  { benchConstraints(b, false) }
func BenchmarkAblationConstraintsOff(b *testing.B) { benchConstraints(b, true) }

// Grid scheduler ablation: EASY backfilling vs plain FCFS on the same
// AuverGrid-style stream.
func benchGridScheduler(b *testing.B, backfill bool) {
	b.ReportAllocs()
	jobs, _, err := synth.AuverGrid.GenerateQueued(2*86400, 64, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	_ = jobs
	var meanWait float64
	for i := 0; i < b.N; i++ {
		// Re-run the raw queue simulation to isolate scheduling cost.
		arr := synth.Arrivals(synth.AuverGrid.Arrival, 2*86400, rng.New(6).Child("a"))
		body := rng.New(6).Child("b")
		specs := make([]gridsim.JobSpec, len(arr))
		for j, t := range arr {
			specs[j] = gridsim.JobSpec{
				ID: int64(j + 1), Submit: t, Procs: 1 + body.IntN(4),
				Runtime: 600 + body.Int64N(4*3600),
			}
		}
		res, err := gridsim.Simulate(gridsim.Config{Nodes: 64, Backfill: backfill}, specs, 300)
		if err != nil {
			b.Fatal(err)
		}
		meanWait = res.MeanWait
	}
	b.ReportMetric(meanWait, "mean_wait_s")
}

func BenchmarkAblationGridFCFS(b *testing.B)     { benchGridScheduler(b, false) }
func BenchmarkAblationGridBackfill(b *testing.B) { benchGridScheduler(b, true) }
