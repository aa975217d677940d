package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/trace"
)

// renderAll renders every table of every result to one string so two
// runs can be compared byte-for-byte.
func renderAll(t *testing.T, results []*Result) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		for _, tbl := range r.Tables {
			if err := tbl.Render(&buf); err != nil {
				t.Fatalf("%s: render: %v", r.ID, err)
			}
		}
	}
	return buf.String()
}

// TestRunAllParallelDeterminism is the tentpole guarantee: a parallel
// run is deeply equal — metrics, rendered tables, and series — to a
// serial run of the same config.
func TestRunAllParallelDeterminism(t *testing.T) {
	serial, err := RunExperiments(context.Background(), NewContext(QuickConfig()), Experiments(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunExperiments(context.Background(), NewContext(QuickConfig()), Experiments(), RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d results, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.ID != p.ID {
			t.Fatalf("result %d ordering differs: %s vs %s", i, s.ID, p.ID)
		}
		if !reflect.DeepEqual(s.Metrics, p.Metrics) {
			t.Errorf("%s: metrics differ\nserial:   %v\nparallel: %v", s.ID, s.Metrics, p.Metrics)
		}
		if !reflect.DeepEqual(s.Series, p.Series) {
			t.Errorf("%s: series differ", s.ID)
		}
		if !reflect.DeepEqual(s.Notes, p.Notes) {
			t.Errorf("%s: notes differ", s.ID)
		}
	}
	if st, pt := renderAll(t, serial), renderAll(t, parallel); st != pt {
		t.Errorf("rendered tables differ:\nserial:\n%s\nparallel:\n%s", st, pt)
	}
}

// TestRunExperimentsParallelErrorPrefix checks the parallel runner's
// error contract: first failure in list order, results truncated to
// the experiments before it.
func TestRunExperimentsParallelErrorPrefix(t *testing.T) {
	boom := errors.New("boom")
	ok := func(id string) Experiment {
		return Experiment{ID: id, Title: id, Run: func(*Context) (*Result, error) {
			return newResult(id, id), nil
		}}
	}
	bad := func(id string) Experiment {
		return Experiment{ID: id, Title: id, Run: func(*Context) (*Result, error) {
			return nil, boom
		}}
	}
	exps := []Experiment{ok("a"), ok("b"), bad("c"), ok("d"), bad("e")}
	for _, workers := range []int{1, 4} {
		results, err := RunExperiments(context.Background(), NewContext(QuickConfig()), exps, RunOptions{Workers: workers})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if got := err.Error(); got != "core: c: boom" {
			t.Errorf("workers=%d: err = %q, want first failure in list order", workers, got)
		}
		if len(results) != 2 || results[0].ID != "a" || results[1].ID != "b" {
			t.Errorf("workers=%d: results = %v, want prefix [a b]", workers, results)
		}
	}
}

// TestContextConcurrentAccess hammers every Context accessor from many
// goroutines: all callers must observe the identical memoized
// artifact, and (under -race) no data race may be reported.
func TestContextConcurrentAccess(t *testing.T) {
	cfg := QuickConfig()
	cfg.Machines = 10
	cfg.SimHorizon = 86400
	cfg.WorkloadHorizon = 6 * 3600
	ctx := NewContext(cfg)

	const goroutines = 32
	systems := []string{"AuverGrid", "SHARCNET", "NorduGrid", "ANL"}
	var (
		wg    sync.WaitGroup
		tasks [goroutines][]trace.Task
		jobs  [goroutines][]trace.Job
		sims  [goroutines]*cluster.Result
		grids [goroutines][]trace.Job
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			tasks[g], err = ctx.GoogleTasks()
			if err != nil {
				t.Errorf("goroutine %d: GoogleTasks: %v", g, err)
				return
			}
			jobs[g], err = ctx.GoogleJobs()
			if err != nil {
				t.Errorf("goroutine %d: GoogleJobs: %v", g, err)
				return
			}
			sim, err := ctx.Sim()
			if err != nil {
				t.Errorf("goroutine %d: Sim: %v", g, err)
				return
			}
			sims[g] = sim
			grid, err := ctx.GridJobs(systems[g%len(systems)])
			if err != nil {
				t.Errorf("goroutine %d: GridJobs: %v", g, err)
				return
			}
			grids[g] = grid
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &tasks[g][0] != &tasks[0][0] {
			t.Fatal("GoogleTasks not memoized: distinct slices observed")
		}
		if &jobs[g][0] != &jobs[0][0] {
			t.Fatal("GoogleJobs not memoized: distinct slices observed")
		}
		if sims[g] != sims[0] {
			t.Fatal("Sim not memoized: distinct results observed")
		}
		if grids[g] == nil {
			t.Fatalf("goroutine %d observed nil grid jobs", g)
		}
	}
	if _, err := ctx.GridJobs("no-such-system"); err == nil {
		t.Fatal("unknown grid system accepted")
	}
}

// TestSimErrorMemoized is the regression test for the re-simulation
// bug: after a failure, every later Sim call must return the memoized
// error without invoking the simulator again.
func TestSimErrorMemoized(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	ctx := NewContext(QuickConfig())
	ctx.SetBuildRetries(0) // retries are off so invocations == callers
	ctx.simulate = func(context.Context, cluster.Config, []trace.Task, *rng.Stream) (*cluster.Result, error) {
		calls.Add(1)
		return nil, boom
	}
	for i := 0; i < 5; i++ {
		if _, err := ctx.Sim(); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("simulate invoked %d times, want exactly 1", got)
	}
}

// TestSimSuccessMemoized counts simulator invocations on the happy
// path too: concurrent and repeated Sim calls share one run.
func TestSimSuccessMemoized(t *testing.T) {
	cfg := QuickConfig()
	cfg.Machines = 10
	cfg.SimHorizon = 86400
	var calls atomic.Int32
	ctx := NewContext(cfg)
	real := ctx.simulate
	ctx.simulate = func(sctx context.Context, c cluster.Config, ts []trace.Task, s *rng.Stream) (*cluster.Result, error) {
		calls.Add(1)
		return real(sctx, c, ts, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ctx.Sim(); err != nil {
				t.Errorf("Sim: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("simulate invoked %d times, want exactly 1", got)
	}
}
