package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// tinyConfig keeps the observability tests in the seconds range.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Machines = 10
	cfg.SimHorizon = 86400
	cfg.WorkloadHorizon = 6 * 3600
	return cfg
}

// TestCellHitMissCounters: the first access to an artifact is a miss
// that records a build span; every later access is a hit.
func TestCellHitMissCounters(t *testing.T) {
	ctx := NewContext(tinyConfig())
	rec := obs.NewRecorder()
	ctx.SetRecorder(rec)

	for i := 0; i < 2; i++ {
		if _, err := ctx.GoogleTasks(); err != nil {
			t.Fatalf("GoogleTasks: %v", err)
		}
	}
	if _, err := ctx.GoogleJobs(); err != nil { // misses google_jobs, hits google_tasks internally
		t.Fatalf("GoogleJobs: %v", err)
	}

	reg := rec.Registry()
	if got := reg.Counter("core.cell.google_tasks.miss").Value(); got != 1 {
		t.Errorf("google_tasks misses = %d, want 1", got)
	}
	if got := reg.Counter("core.cell.google_tasks.hit").Value(); got != 2 {
		t.Errorf("google_tasks hits = %d, want 2", got)
	}
	if got := reg.Counter("core.cell.google_jobs.miss").Value(); got != 1 {
		t.Errorf("google_jobs misses = %d, want 1", got)
	}
	if got := reg.Gauge("core.cell.google_tasks.build_seconds").Value(); got < 0 {
		t.Errorf("build_seconds gauge = %v", got)
	}

	var buildSpans []string
	for _, sp := range rec.Spans() {
		if sp.Cat == obs.CatArtifact {
			buildSpans = append(buildSpans, sp.Name)
		}
	}
	joined := strings.Join(buildSpans, ",")
	for _, want := range []string{"build:google_tasks", "build:google_jobs"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing artifact span %s in %v", want, buildSpans)
		}
	}
}

// TestExperimentSpansBothRunners: serial and parallel runners both
// record one experiment span per experiment; the parallel runner also
// records per-worker spans.
func TestExperimentSpansBothRunners(t *testing.T) {
	exps := Experiments()[:4]
	for _, workers := range []int{1, 4} {
		ctx := NewContext(tinyConfig())
		rec := obs.NewRecorder()
		ctx.SetRecorder(rec)
		if _, err := RunExperiments(context.Background(), ctx, exps, RunOptions{Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		expSpans := map[string]int{}
		workerSpans := 0
		for _, sp := range rec.Spans() {
			switch sp.Cat {
			case obs.CatExperiment:
				expSpans[sp.Name]++
			case obs.CatWorker:
				workerSpans++
			}
		}
		for _, e := range exps {
			if expSpans["exp:"+e.ID] != 1 {
				t.Errorf("workers=%d: experiment %s has %d spans, want 1", workers, e.ID, expSpans["exp:"+e.ID])
			}
		}
		if workers > 1 && workerSpans == 0 {
			t.Errorf("workers=%d: no worker spans recorded", workers)
		}
	}
}

// TestInstrumentationDoesNotChangeResults is the core-level half of the
// invariant: a run with a recorder attached is deeply equal — metrics,
// series, notes and rendered tables — to a run without one.
func TestInstrumentationDoesNotChangeResults(t *testing.T) {
	plain, err := RunExperiments(context.Background(), NewContext(tinyConfig()), Experiments(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(tinyConfig())
	ctx.SetRecorder(obs.NewRecorder())
	observed, err := RunExperiments(context.Background(), ctx, Experiments(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(observed) {
		t.Fatalf("plain %d results, observed %d", len(plain), len(observed))
	}
	for i := range plain {
		p, o := plain[i], observed[i]
		if p.ID != o.ID {
			t.Fatalf("result %d ordering differs: %s vs %s", i, p.ID, o.ID)
		}
		if !reflect.DeepEqual(p.Metrics, o.Metrics) {
			t.Errorf("%s: metrics differ with instrumentation on", p.ID)
		}
		if !reflect.DeepEqual(p.Series, o.Series) {
			t.Errorf("%s: series differ with instrumentation on", p.ID)
		}
		if !reflect.DeepEqual(p.Notes, o.Notes) {
			t.Errorf("%s: notes differ with instrumentation on", p.ID)
		}
	}
	if pt, ot := renderAll(t, plain), renderAll(t, observed); pt != ot {
		t.Error("rendered tables differ with instrumentation on")
	}
}
