// Package core is the experiment layer of the reproduction: one
// constructor per table and figure of the paper, a shared context that
// memoizes the expensive artifacts (the synthetic workloads and the
// cluster simulation), and a registry that regenerates everything.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Config scales the reproduction. The paper's trace covers 12,500
// machines for a month; the defaults reproduce every statistic at a
// laptop-friendly scale (see DESIGN.md on why the shapes survive
// scaling).
type Config struct {
	Seed uint64

	// Google cluster simulation (Section IV).
	Machines   int   // park size
	SimHorizon int64 // seconds simulated

	// Work-load analyses (Section III). The Google workload is
	// generated at the full 552 jobs/hour over this horizon; Grid
	// workloads use the same horizon.
	WorkloadHorizon int64

	// WorkloadMaxTasksPerJob caps the map-reduce fan-out in the
	// workload-analysis trace to bound memory; it does not affect the
	// task-length or job-length distributions.
	WorkloadMaxTasksPerJob int

	// SampleMachines bounds how many machines the Fig 10 snapshot and
	// Fig 13 comparison export.
	SampleMachines int
}

// Canonical renders the config as a stable string, used as part of the
// content address of checkpointed artifacts: any field change yields a
// different checkpoint key, so stale artifacts miss instead of lying.
func (c Config) Canonical() string {
	return fmt.Sprintf("seed=%d machines=%d sim=%d wl=%d maxtasks=%d sample=%d",
		c.Seed, c.Machines, c.SimHorizon, c.WorkloadHorizon,
		c.WorkloadMaxTasksPerJob, c.SampleMachines)
}

// DefaultConfig is the full reproduction scale (about a minute of CPU
// and a few hundred MB).
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		Machines:               200,
		SimHorizon:             14 * 86400,
		WorkloadHorizon:        7 * 86400,
		WorkloadMaxTasksPerJob: 150,
		SampleMachines:         50,
	}
}

// QuickConfig is a fast scale for tests and benchmarks (seconds).
func QuickConfig() Config {
	return Config{
		Seed:                   1,
		Machines:               40,
		SimHorizon:             2 * 86400,
		WorkloadHorizon:        1 * 86400,
		WorkloadMaxTasksPerJob: 80,
		SampleMachines:         10,
	}
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline expiry — the failures that describe the caller, not the
// artifact, and therefore must never be memoized or retried.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cell is a lazily-computed artifact: the computation runs once and
// both its value and its error are memoized, so a failed computation
// fails fast forever instead of silently re-running for every
// subsequent caller — with one exception: a build aborted by context
// cancellation is NOT memoized, because the failure belongs to the
// cancelled caller, and a later caller with a live context deserves a
// real build (this is what makes checkpoint-resume after SIGINT work).
type cell[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

// get runs build under the cell lock on first call and returns the
// memoized outcome on every later call. Concurrent callers of the same
// cell block only until that cell's build finishes, not on unrelated
// artifacts.
func (c *cell[T]) get(build func() (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.val, c.err
	}
	v, err := build()
	if err != nil && isCtxErr(err) {
		var zero T
		return zero, err
	}
	c.val, c.err = v, err
	c.done = true
	return c.val, c.err
}

// ctxShared is the state every view of a Context shares: the memoized
// artifact cells, the test seams and the recorder. Context itself is a
// cheap value (config + a context.Context + this pointer), so runners
// hand each experiment a view carrying its own deadline while all
// views populate the same cells.
type ctxShared struct {
	googleTasks cell[[]trace.Task]
	googleJobs  cell[[]trace.Job]
	sim         cell[*cluster.Result]

	gridMu   sync.Mutex // guards the gridJobs map structure only
	gridJobs map[string]*cell[[]trace.Job]

	// simulate is a seam for tests that count or fail simulator
	// invocations; production contexts always use cluster.SimulateCtx.
	simulate func(context.Context, cluster.Config, []trace.Task, *rng.Stream) (*cluster.Result, error)

	// rec, when non-nil, receives cell hit/miss counters, artifact
	// build spans and per-experiment spans. Instrumentation is strictly
	// additive: no artifact or metric depends on it.
	rec *obs.Recorder

	// retries bounds how many times a failed artifact build is retried
	// (with seeded exponential backoff) before the error is surfaced.
	retries int
}

// defaultBuildRetries is how many times a panicking or erroring
// artifact build is re-attempted before giving up. Transient faults
// (the kind internal/fault injects) recover; deterministic bugs fail
// after a bounded, seeded-backoff delay.
const defaultBuildRetries = 2

// Context memoizes the heavy artifacts shared by the experiments so
// the full reproduction generates each workload and runs the simulator
// exactly once. Each artifact lives in its own lazy cell, so
// concurrent experiments contend only on the artifact they actually
// need: a Fig 3 worker generating Grid jobs never blocks behind the
// cluster simulation a Fig 7 worker is running.
//
// A Context must be created with NewContext; views with per-experiment
// deadlines are derived with WithContext and share the same cells.
type Context struct {
	Cfg Config

	ctx context.Context
	*ctxShared
}

// NewContext returns an empty context for the given configuration.
func NewContext(cfg Config) *Context {
	return &Context{
		Cfg: cfg,
		ctx: context.Background(),
		ctxShared: &ctxShared{
			gridJobs: make(map[string]*cell[[]trace.Job]),
			simulate: cluster.SimulateCtx,
			retries:  defaultBuildRetries,
		},
	}
}

// WithContext returns a view of c that carries ctx for cancellation
// and deadlines. The view shares every memoized cell with c: an
// artifact built through any view is visible to all of them.
func (c *Context) WithContext(ctx context.Context) *Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Context{Cfg: c.Cfg, ctx: ctx, ctxShared: c.ctxShared}
}

// Ctx returns the context this view carries (never nil).
func (c *Context) Ctx() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// SetRecorder attaches an observability recorder to the context. Call
// it before any artifact is built or experiment run; a nil recorder
// (the default) disables instrumentation at zero cost.
func (c *Context) SetRecorder(r *obs.Recorder) { c.rec = r }

// Recorder returns the attached recorder (nil when observability is
// off; a nil recorder is safe to use).
func (c *Context) Recorder() *obs.Recorder { return c.rec }

// SetBuildRetries overrides how many times a failed artifact build is
// retried (0 disables retrying). Tests use it to make failures
// immediate; production keeps the default.
func (c *Context) SetBuildRetries(n int) {
	if n < 0 {
		n = 0
	}
	c.retries = n
}

// backoffFor returns the seeded, jittered exponential backoff before
// retry number attempt (0-based): base 10ms, doubled per attempt,
// scaled by a jitter in [0.5, 1.5) drawn from a child stream keyed by
// (seed, artifact name) — so backoff timing is reproducible and never
// consumes randomness from any experiment stream.
func backoffFor(s *rng.Stream, attempt int) time.Duration {
	base := 10 * time.Millisecond << uint(attempt)
	return time.Duration(float64(base) * s.Range(0.5, 1.5))
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// resilientBuild runs one artifact build with panic isolation and
// bounded seeded-backoff retries. Context cancellation is returned
// immediately (never retried, never counted as a build failure);
// panics are converted to errors so one broken artifact cannot take
// down the whole run. Failures and recoveries land in the registry as
// core.build.<name>.failure / .retry_success.
func resilientBuild[T any](c *Context, name string, build func() (T, error)) (T, error) {
	var zero T
	reg := c.rec.Registry()
	retryRng := rng.New(c.Cfg.Seed).Child("retry:" + name)
	attempts := c.retries + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := c.Ctx().Err(); err != nil {
			return zero, context.Cause(c.Ctx())
		}
		v, err := func() (v T, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("build %s: panic: %v", name, r)
				}
			}()
			if err := fault.Hit(c.Ctx(), "core.build."+name); err != nil {
				return zero, err
			}
			return build()
		}()
		if err == nil {
			if attempt > 0 {
				reg.Counter("core.build." + name + ".retry_success").Add(1)
			}
			return v, nil
		}
		if isCtxErr(err) {
			return zero, err
		}
		lastErr = err
		reg.Counter("core.build." + name + ".failure").Add(1)
		if attempt < attempts-1 {
			sleepCtx(c.Ctx(), backoffFor(retryRng, attempt))
		}
	}
	return zero, fmt.Errorf("build %s failed after %d attempts: %w", name, attempts, lastErr)
}

// observedGet wraps a cell build with hit/miss accounting, a build
// span, a build-latency gauge and the resilience layer (panic
// isolation + seeded retries). The caller that runs the build counts
// the miss; every other caller — including those that blocked on the
// same cell — consumed the memoized artifact and counts a hit.
func observedGet[T any](c *Context, name string, cl *cell[T], build func() (T, error)) (T, error) {
	built := false
	v, err := cl.get(func() (T, error) {
		built = true
		// A traced caller (the serving path threads its request trace
		// through c.Ctx()) gets the build as a trace child; the batch
		// pipeline keeps its plain AutoTID span.
		sp, _ := c.rec.StartSpan(c.Ctx(), "build:"+name, obs.CatArtifact)
		start := time.Now()
		defer func() {
			c.rec.Registry().Gauge("core.cell." + name + ".build_seconds").Set(time.Since(start).Seconds())
			sp.End()
		}()
		return resilientBuild(c, name, build)
	})
	reg := c.rec.Registry()
	if built {
		reg.Counter("core.cell." + name + ".miss").Add(1)
	} else {
		reg.Counter("core.cell." + name + ".hit").Add(1)
	}
	return v, err
}

// GoogleTasks returns the workload-analysis task trace (full
// submission rate, Section III).
func (c *Context) GoogleTasks() ([]trace.Task, error) {
	return observedGet(c, "google_tasks", &c.googleTasks, func() ([]trace.Task, error) {
		gcfg := synth.DefaultGoogleConfig(c.Cfg.WorkloadHorizon)
		gcfg.MaxTasksPerJob = c.Cfg.WorkloadMaxTasksPerJob
		return synth.GenerateGoogleTasks(gcfg, rng.New(c.Cfg.Seed).Child("google-workload")), nil
	})
}

// GoogleJobs returns the per-job summaries of GoogleTasks.
func (c *Context) GoogleJobs() ([]trace.Job, error) {
	return observedGet(c, "google_jobs", &c.googleJobs, func() ([]trace.Job, error) {
		tasks, err := c.GoogleTasks()
		if err != nil {
			return nil, err
		}
		return synth.GoogleJobsFromTasks(tasks), nil
	})
}

// Sim returns the memoized cluster simulation (scaled submission rate,
// Section IV). A simulation error is memoized too: a broken config
// fails every caller fast instead of re-running the whole simulation.
// Cancellation is the exception — an aborted simulation is not
// memoized, so the next caller with a live context rebuilds it.
func (c *Context) Sim() (*cluster.Result, error) {
	return observedGet(c, "sim", &c.sim, func() (*cluster.Result, error) {
		seed := rng.New(c.Cfg.Seed)
		machines := synth.GoogleMachines(c.Cfg.Machines, seed.Child("machines"))
		gcfg := synth.ScaledGoogleConfig(c.Cfg.Machines, c.Cfg.SimHorizon)
		tasks := synth.GenerateGoogleTasks(gcfg, seed.Child("google-sim"))
		cfg := cluster.DefaultConfig(machines, c.Cfg.SimHorizon)
		cfg.Metrics = c.rec.Registry()
		res, err := c.simulate(c.Ctx(), cfg, tasks, seed.Child("sim"))
		if err != nil {
			return nil, fmt.Errorf("core: simulate: %w", err)
		}
		return res, nil
	})
}

// GridJobs returns the memoized job stream of the named Grid system
// over the workload horizon. Distinct systems generate concurrently;
// only callers of the same system share a cell.
func (c *Context) GridJobs(name string) ([]trace.Job, error) {
	c.gridMu.Lock()
	cl, ok := c.gridJobs[name]
	if !ok {
		cl = &cell[[]trace.Job]{}
		c.gridJobs[name] = cl
	}
	c.gridMu.Unlock()
	return observedGet(c, "grid_"+name, cl, func() ([]trace.Job, error) {
		sys, err := synth.SystemByName(name)
		if err != nil {
			return nil, err
		}
		return sys.Generate(c.Cfg.WorkloadHorizon, rng.New(c.Cfg.Seed).Child("grid-"+name)), nil
	})
}

// Result is one regenerated paper artifact.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Series []*report.Series
	// Metrics records the measured quantities compared against the
	// paper in EXPERIMENTS.md.
	Metrics map[string]float64
	Notes   []string
	// Err is the failure cause when the experiment could not be
	// regenerated and the run continued under -keep-going; a Result
	// with a non-empty Err carries no tables or series.
	Err string `json:",omitempty"`
}

// Failed reports whether this result is a keep-going failure
// placeholder rather than a regenerated artifact.
func (r *Result) Failed() bool { return r.Err != "" }

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: make(map[string]float64)}
}

// failedResult is the graceful-degradation placeholder emitted under
// keep-going: the report annotates the artifact "FAILED: <cause>"
// instead of the whole run aborting.
func failedResult(e Experiment, err error) *Result {
	return &Result{ID: e.ID, Title: e.Title, Err: err.Error()}
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Result, error)
}

// Experiments lists every artifact of the paper's evaluation in paper
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "Fig 2: jobs and tasks per priority", Fig2},
		{"fig3", "Fig 3: CDF of job length, Google vs Grid", Fig3},
		{"fig4", "Fig 4: mass-count disparity of task lengths", Fig4},
		{"fig5", "Fig 5: CDF of job submission intervals", Fig5},
		{"table1", "Table I: jobs submitted per hour", Table1},
		{"fig6", "Fig 6: per-job CPU and memory usage", Fig6},
		{"fig7", "Fig 7: distribution of maximum host load", Fig7},
		{"fig8", "Fig 8: task events and queue state on one host", Fig8},
		{"fig9", "Fig 9: mass-count of unchanged queue-state durations", Fig9},
		{"fig10", "Fig 10: snapshot of machine usage levels", Fig10},
		{"table2", "Table II: unchanged CPU usage-level durations", Table2},
		{"table3", "Table III: unchanged memory usage-level durations", Table3},
		{"fig11", "Fig 11: mass-count disparity of CPU usage", Fig11},
		{"fig12", "Fig 12: mass-count disparity of memory usage", Fig12},
		{"fig13", "Fig 13: host load comparison Google vs Grid", Fig13},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}
