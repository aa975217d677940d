package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

// RunOne executes a single experiment with panic isolation and an
// optional per-run deadline, and is the only place an experiment build
// starts: the batch runner calls it for each experiment, and the
// serving daemon for each cold artifact, behind its request coalescer.
//
// With a coordinator, the experiment is checkpointed: coord.Do reads
// the shared store, and on a miss builds under a lease and publishes
// the result, so every process sharing the checkpoint directory builds
// each key once, and a store warmed by an earlier CLI run or daemon
// (the keys are shared via CheckpointKey) answers from disk without
// re-simulating. A nil coordinator builds directly.
//
// The error, like RunExperiments', is wrapped "core: <id>: ...";
// context cancellation surfaces unwrapped causes via errors.Is. A
// checkpoint hit bypasses the build entirely, so it records no
// core.cell.* activity and no experiment span.
//
// When ctx carries a request trace (the serving path), the checkpoint
// read and publish and the experiment run each become child spans of
// it, on one lane, and the checkpoint hit or miss is noted on the
// request's annotation bag.
func RunOne(ctx context.Context, c *Context, e Experiment, timeout time.Duration, coord *replica.Coordinator) (*Result, error) {
	rec := c.Recorder()
	if _, traced := obs.SpanFromContext(ctx); traced {
		// One Chrome lane for the whole build side of this request: the
		// context crossed the coalescer's goroutine boundary, so it has a
		// span identity but no lane yet.
		ctx = rec.PinLane(ctx)
	}
	build := func(ctx context.Context) (any, error) {
		sp, runCtx := rec.StartSpan(ctx, "exp:"+e.ID, obs.CatExperiment)
		defer sp.End()
		return runExperimentProtected(runCtx, c, e, timeout)
	}
	if coord == nil {
		r, err := build(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.ID, err)
		}
		return r.(*Result), nil
	}
	v, src, err := coord.Do(ctx, CheckpointKey(c.Cfg, e.ID), decodeResult(e.ID), build)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", e.ID, err)
	}
	ri := obs.ReqInfoFrom(ctx)
	if src == replica.SourceStore {
		ri.MarkCkptHit()
	} else {
		ri.MarkCkptMiss()
	}
	return v.(*Result), nil
}

// decodeResult decodes a checkpointed Result of experiment id. A
// payload naming another experiment is rejected, so it reads as a miss.
func decodeResult(id string) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		if r.ID != id {
			return nil, fmt.Errorf("core: checkpoint holds %q, want %q", r.ID, id)
		}
		return &r, nil
	}
}
