// Package par provides the small deterministic-parallelism helper the
// analyses are built on: a bounded, index-sharded parallel for-loop.
//
// Determinism is the caller's contract, not the scheduler's: every
// worker receives disjoint indices and must write only to the i-th
// slot of a pre-sized output, so the merged result is independent of
// goroutine interleaving. Combined with the splittable rng.Stream
// (each unit of work derives its own child stream from a label), a
// parallel run is byte-identical to a serial one.
//
// Failure semantics: the first panic or error at any index stops the
// loop early — no worker claims another index once a failure is
// recorded, and in-flight cancellation-aware fns observe a cancelled
// context — instead of letting every shard run to completion before
// re-raising.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalises a requested worker count: values <= 0 mean
// GOMAXPROCS, and the count is capped at n since extra workers would
// only idle.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// WorkerStats summarises one worker's share of an observed loop:
// how many indices it claimed (its shard size), how long it spent
// inside fn (busy time), and the absolute interval it was active over
// (First..Last), from which queue wait and imbalance fall out.
type WorkerStats struct {
	Worker int
	Items  int
	Busy   time.Duration
	First  time.Time // when the worker started its first item
	Last   time.Time // when the worker finished its last item
}

// Observer receives one callback per observed loop after every worker
// drains. Implementations must not retain the stats slice. Observing
// is strictly additive: it never changes which worker runs which index.
type Observer interface {
	ObserveLoop(name string, n int, stats []WorkerStats)
}

// panicValue wraps a recovered panic so the engine can tell "fn
// panicked" apart from "fn returned an error" when re-raising.
type panicValue struct{ v any }

// ForEach runs fn(i) for every i in [0, n) using up to workers
// goroutines (workers <= 0 means GOMAXPROCS). Each index is executed
// exactly once unless a panic occurs: the first panic stops all
// workers from claiming further indices and is re-raised on the
// calling goroutine as soon as in-flight work drains.
func ForEach(n, workers int, fn func(i int)) {
	ForEachObserved("", n, workers, nil, func(i, _ int) { fn(i) })
}

// ForEachObserved is ForEach with two observability extras: fn also
// receives the claiming worker's index in [0, Workers(workers, n)),
// and a non-nil Observer is handed per-worker busy/shard statistics
// when the loop completes. With a nil Observer no clocks are read, so
// ForEach pays nothing for the seam.
func ForEachObserved(name string, n, workers int, obs Observer, fn func(i, worker int)) {
	err := ForEachCtx(context.Background(), name, n, workers, obs, func(_ context.Context, i, worker int) error {
		fn(i, worker)
		return nil
	})
	if err != nil {
		// fn never returns an error and the context never ends, so any
		// failure is a wrapped panic: re-raise its value.
		panic(err.(*panicError).value)
	}
}

// panicError carries a recovered panic value through the error return
// of ForEachCtx so non-ctx callers (ForEach) can re-raise it verbatim.
type panicError struct{ value any }

func (p *panicError) Error() string { return "par: worker panicked" }

// PanicValue returns the recovered value carried by an error produced
// when a worker panicked, and whether err is such an error.
func PanicValue(err error) (any, bool) {
	if pv, ok := err.(*panicError); ok {
		return pv.value, true
	}
	return nil, false
}

// ForEachCtx is the cancellation-aware engine underneath ForEach: it
// runs fn(ctx, i, worker) for i in [0, n) and stops early on the first
// failure. A failure is: fn returns a non-nil error, fn panics
// (recovered, wrapped, re-raisable via PanicValue), or ctx is
// cancelled. After a failure no new index is claimed; the ctx passed
// to in-flight fns is cancelled so long-running work can bail out.
// The returned error is the first failure in claim order, or
// ctx's cause when the parent context was cancelled.
func ForEachCtx(ctx context.Context, name string, n, workers int, obs Observer, fn func(ctx context.Context, i, worker int) error) error {
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	if n <= 0 {
		return nil
	}
	w := Workers(workers, n)
	if w == 1 {
		return forEachSerial(ctx, name, n, obs, fn)
	}

	loopCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		errMu   sync.Mutex
		firstAt = int64(n) // claim index of the earliest failure
		first   error
		stats   []WorkerStats
	)
	record := func(at int64, err error) {
		errMu.Lock()
		if first == nil || at < firstAt {
			first, firstAt = err, at
		}
		errMu.Unlock()
		failed.Store(true)
		cancel(err)
	}
	if obs != nil {
		stats = make([]WorkerStats, w)
	}
	for k := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || loopCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var (
					itemErr error
					start   time.Time
					st      *WorkerStats
				)
				if obs != nil {
					st = &stats[k]
					start = time.Now()
					if st.Items == 0 {
						st.Worker = k
						st.First = start
					}
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							itemErr = &panicError{value: r}
						}
					}()
					itemErr = fn(loopCtx, i, k)
				}()
				if st != nil {
					st.Last = time.Now()
					st.Busy += st.Last.Sub(start)
					st.Items++
				}
				if itemErr != nil {
					record(int64(i), itemErr)
					return
				}
			}
		}()
	}
	wg.Wait()
	errMu.Lock()
	err := first
	errMu.Unlock()
	if err == nil {
		// The parent may have been cancelled without any fn failing.
		if ctxErr := context.Cause(ctx); ctxErr != nil && ctx.Err() != nil {
			return ctxErr
		}
		if obs != nil {
			obs.ObserveLoop(name, n, stats)
		}
		return nil
	}
	return err
}

// forEachSerial is the inline single-worker path: no goroutines, so
// serial callers keep exact serial panic semantics and pay no
// scheduling cost. Cancellation is still honoured between indices.
func forEachSerial(ctx context.Context, name string, n int, obs Observer, fn func(ctx context.Context, i, worker int) error) error {
	var st WorkerStats
	if obs != nil {
		st = WorkerStats{Worker: 0, Items: n, First: time.Now()}
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		if err := fn(ctx, i, 0); err != nil {
			return err
		}
	}
	if obs != nil {
		st.Last = time.Now()
		st.Busy = st.Last.Sub(st.First)
		obs.ObserveLoop(name, n, []WorkerStats{st})
	}
	return nil
}

// Map runs fn over [0, n) with the given worker bound and collects the
// results in index order. It is the pre-sized-slice idiom of ForEach
// packaged for the common "one output per input" case.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
