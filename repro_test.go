package repro

// End-to-end smoke tests across the internal packages, assembled the
// way a caller strings them together: generate a workload, simulate a
// cluster, run an experiment, and fit, predict and find periods in a
// series.

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/synth"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

func generateGoogleWorkload(horizon int64, seed uint64) ([]trace.Task, []trace.Job) {
	tasks := synth.GenerateGoogleTasks(synth.DefaultGoogleConfig(horizon), rng.New(seed))
	return tasks, synth.GoogleJobsFromTasks(tasks)
}

// gridSystemNames lists the Grid/HPC systems in paper order: the seven
// Table I systems, then DAS-2.
func gridSystemNames() []string {
	var names []string
	for _, g := range synth.GridSystems {
		names = append(names, g.Name)
	}
	return append(names, synth.DAS2.Name)
}

func TestGenerateGoogleWorkload(t *testing.T) {
	tasks, jobs := generateGoogleWorkload(3600, 1)
	if len(tasks) == 0 || len(jobs) == 0 {
		t.Fatal("empty workload")
	}
	if len(tasks) < len(jobs) {
		t.Fatal("fewer tasks than jobs")
	}
	// Deterministic.
	tasks2, _ := generateGoogleWorkload(3600, 1)
	if len(tasks) != len(tasks2) {
		t.Fatal("nondeterministic generation")
	}
}

func TestGenerateGridWorkload(t *testing.T) {
	for _, name := range gridSystemNames() {
		sys, err := synth.SystemByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if jobs := sys.Generate(86400, rng.New(2)); len(jobs) == 0 {
			t.Fatalf("%s: empty workload", name)
		}
	}
	if _, err := synth.SystemByName("Unknown"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestGridSystemNames(t *testing.T) {
	names := gridSystemNames()
	if len(names) != 8 {
		t.Fatalf("got %d systems, want 8", len(names))
	}
	if names[0] != "AuverGrid" || names[7] != "DAS-2" {
		t.Fatalf("unexpected order: %v", names)
	}
}

func TestSimulateGoogleCluster(t *testing.T) {
	const machines, horizon = 10, 6 * 3600
	s := rng.New(3)
	park := synth.GoogleMachines(machines, s.Child("machines"))
	tasks := synth.GenerateGoogleTasks(synth.ScaledGoogleConfig(machines, horizon), s.Child("workload"))
	res, err := cluster.Simulate(cluster.DefaultConfig(park, horizon), tasks, s.Child("sim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Machines) != machines {
		t.Fatalf("got %d machine series", len(res.Machines))
	}
	if len(res.Events) == 0 {
		t.Fatal("no events")
	}
	if res.Stats.Attempts == 0 {
		t.Fatal("nothing scheduled")
	}
}

func TestRunExperiment(t *testing.T) {
	exp, err := core.Find("table1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run(core.NewContext(core.QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table1" || len(r.Tables) == 0 {
		t.Fatalf("unexpected result %+v", r)
	}
	if _, err := core.Find("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	if len(core.Experiments()) != 15 {
		t.Fatalf("want 15 experiments, got %d", len(core.Experiments()))
	}
	if len(core.Extensions()) != 5 {
		t.Fatalf("want 5 extensions, got %d", len(core.Extensions()))
	}
}

func TestFacadeCapabilities(t *testing.T) {
	// Fit: ranked models.
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i%17) + 1
	}
	models, err := fit.Fit(sample)
	if err != nil || len(models) == 0 {
		t.Fatalf("fit: %v (%d models)", err, len(models))
	}

	// Prediction: best predictor over a flat series.
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = 0.4
	}
	s := &timeseries.Series{Start: 0, Step: 300, Values: vs}
	p, e := predict.Best(predict.Standard(), []*timeseries.Series{s}, 10)
	if p == nil || e.MAE > 1e-9 {
		t.Fatalf("best predictor on flat series: %v %v", p, e)
	}

	// Spectral: a clean daily sine.
	daily := make([]float64, 2048)
	for i := range daily {
		daily[i] = 0.5 + 0.3*math.Sin(2*math.Pi*float64(i)*300/86400)
	}
	peak, err := spectral.DominantPeriod(&timeseries.Series{Start: 0, Step: 300, Values: daily})
	if err != nil {
		t.Fatal(err)
	}
	if peak.PeriodSeconds < 86400/2 || peak.PeriodSeconds > 86400*2 {
		t.Fatalf("period %v", peak.PeriodSeconds)
	}
}
