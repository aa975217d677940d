package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/replica"
)

// RunOptions configures the fault-tolerant experiment runner.
type RunOptions struct {
	// Workers bounds the worker pool (<= 0 means GOMAXPROCS; 1 runs
	// inline on the calling goroutine).
	Workers int
	// ExpTimeout, when positive, is a per-experiment deadline: an
	// experiment that exceeds it fails with context.DeadlineExceeded
	// without affecting its neighbours' budgets.
	ExpTimeout time.Duration
	// KeepGoing turns experiment failures (errors, panics, timeouts)
	// into annotated placeholder Results instead of aborting the run.
	// Parent-context cancellation still stops the run.
	KeepGoing bool
	// Ckpt, when non-nil, checkpoints every experiment through
	// RunOne's coordinator path, so an interrupted run resumed with the
	// same directory rebuilds only the missing artifacts.
	Ckpt *replica.Coordinator
}

// ckptSchema versions the checkpointed Result encoding. Bump it when
// Result's shape (or any experiment's semantics) changes so old
// checkpoint files miss instead of resurrecting stale artifacts.
const ckptSchema = "core.Result/v1"

// CheckpointKey is the content address of one experiment's artifact:
// schema version + experiment ID + the full canonical config.
func CheckpointKey(cfg Config, expID string) string {
	return ckpt.Key(ckptSchema, expID, cfg.Canonical())
}

// parRecorder adapts par worker statistics into the context recorder:
// one Chrome-trace span per worker, the shard-size histogram, and
// per-worker busy-time/item counters (sharded by worker index, so the
// publish itself never contends).
type parRecorder struct{ rec *obs.Recorder }

func (p parRecorder) ObserveLoop(name string, n int, stats []par.WorkerStats) {
	reg := p.rec.Registry()
	shard := reg.Histogram("par.shard_items", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128})
	busy := reg.Counter("par.worker_busy_us")
	items := reg.Counter("par.items")
	for _, st := range stats {
		if st.Items == 0 {
			continue
		}
		shard.Observe(float64(st.Items))
		busy.AddShard(st.Worker, st.Busy.Microseconds())
		items.AddShard(st.Worker, int64(st.Items))
		p.rec.AddSpan(fmt.Sprintf("%s worker-%d", name, st.Worker), obs.CatWorker,
			st.Worker, st.First, st.Last.Sub(st.First))
	}
}

// queueWaitUppers buckets how long an experiment sat enqueued before a
// worker claimed it (seconds).
var queueWaitUppers = []float64{0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 60}

// runExperimentProtected executes one experiment with panic isolation,
// a named fault site and an optional per-experiment deadline. The
// returned error is never a panic in flight: a panicking experiment
// becomes an error the caller can annotate or abort on.
func runExperimentProtected(ctx context.Context, c *Context, e Experiment, timeout time.Duration) (r *Result, err error) {
	// The recovery is installed first so even a panicking fault site
	// (chaos Kind: Panic) degrades to an error, never a process crash.
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, fmt.Errorf("panic: %v", rec)
		}
	}()
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, context.Cause(ctx)
	}
	if err := fault.Hit(ctx, "core.exp."+e.ID); err != nil {
		return nil, err
	}
	expCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		expCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return e.Run(c.WithContext(expCtx))
}

// RunExperiments is the fault-tolerant runner both the CLI paths use:
// each experiment goes through RunOne (checkpointing, panic isolation,
// per-experiment deadlines), plus keep-going degradation and early
// cancellation, over 1..N workers
// (<= 0 means GOMAXPROCS; 1 runs inline). Results come back in list
// order regardless of completion order, and are byte-identical to a
// serial run's: every artifact an experiment consumes is memoized once
// in c's lazy cells or derived from an rng child stream keyed only by
// (seed, label), so no experiment can observe its neighbours.
//
// Error semantics without KeepGoing mirror the original serial
// runner's: the returned error is the first failure in list order
// (preferring a real failure over a secondary cancellation), and the
// result slice holds the contiguous prefix of completed experiments
// before the first gap. With KeepGoing, failed experiments yield
// placeholder Results (Failed() == true) and the error is non-nil only
// when the parent ctx was cancelled.
func RunExperiments(ctx context.Context, c *Context, exps []Experiment, opt RunOptions) ([]*Result, error) {
	rec := c.Recorder()
	w := par.Workers(opt.Workers, len(exps))
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))

	var (
		observer par.Observer
		start    time.Time
	)
	if rec != nil && w > 1 {
		observer = parRecorder{rec: rec}
		start = time.Now()
	}

	loopErr := par.ForEachCtx(ctx, "experiments", len(exps), w, observer, func(runCtx context.Context, i, _ int) error {
		e := exps[i]
		if rec != nil && w > 1 {
			rec.Registry().Histogram("par.queue_wait_seconds", queueWaitUppers).
				Observe(time.Since(start).Seconds())
		}
		r, err := RunOne(runCtx, c, e, opt.ExpTimeout, opt.Ckpt)
		if err == nil {
			results[i] = r
			return nil
		}
		errs[i] = err
		if opt.KeepGoing {
			// The parent being cancelled means the operator wants out;
			// only per-experiment failures degrade gracefully.
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			rec.Registry().Counter("core.exp.failed").Add(1)
			results[i] = failedResult(e, err)
			return nil
		}
		return err
	})

	// Return the first real failure in list order; a secondary
	// cancellation error (an experiment that observed the loop ctx
	// dying) must not mask the root cause.
	var firstErr error
	for _, err := range errs {
		if err != nil && !isCtxErr(err) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr == nil {
		firstErr = loopErr
	}
	if firstErr != nil && !opt.KeepGoing || loopErr != nil && opt.KeepGoing {
		if opt.KeepGoing {
			firstErr = loopErr
		}
		prefix := len(results)
		for i, r := range results {
			if r == nil {
				prefix = i
				break
			}
		}
		return results[:prefix], firstErr
	}
	return results, nil
}
