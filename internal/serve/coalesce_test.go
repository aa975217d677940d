package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupCoalescesConcurrentCallers enforces singleflight.
//
// GIVEN 50 concurrent Do calls for one key whose fn blocks,
// WHEN the fn is released once all 49 duplicates are parked,
// THEN fn ran exactly once and all 50 callers got its value.
func TestGroupCoalescesConcurrentCallers(t *testing.T) {
	var g group
	var runs atomic.Int64
	release := make(chan struct{})
	fn := func() (any, error) {
		runs.Add(1)
		<-release
		return "built", nil
	}

	const waiters = 49
	results := make(chan string, waiters+1)
	var wg sync.WaitGroup
	for i := 0; i < waiters+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), "k", fn)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			results <- v.(string)
		}()
	}
	waitFor(t, "every duplicate parked on the flight", func() bool { return g.waiting("k") == waiters })
	close(release)
	wg.Wait()
	close(results)
	n := 0
	for v := range results {
		n++
		if v != "built" {
			t.Errorf("result %q, want built", v)
		}
	}
	if n != waiters+1 || runs.Load() != 1 {
		t.Errorf("got %d results from %d runs, want %d from 1", n, runs.Load(), waiters+1)
	}
}

func TestGroupKeysAreIndependent(t *testing.T) {
	var g group
	for _, key := range []string{"a", "b"} {
		v, shared, err := g.Do(context.Background(), key, func() (any, error) { return key, nil })
		if err != nil || shared || v.(string) != key {
			t.Errorf("Do(%s) = %v shared=%v err=%v", key, v, shared, err)
		}
	}
}

// TestGroupWaiterAbandonsOnContextCancel enforces that a waiter's
// cancellation is its own.
//
// GIVEN a flight in progress for a key,
// WHEN a second caller joins it with an already-cancelled context,
// THEN that caller returns context.Canceled at once and the flight
// still completes for its leader without error.
func TestGroupWaiterAbandonsOnContextCancel(t *testing.T) {
	var g group
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (any, error) { <-release; return 1, nil })
		leaderDone <- err
	}()
	waitFor(t, "the flight to register", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		_, ok := g.calls["k"]
		return ok
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, shared, err := g.Do(ctx, "k", nil); !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: shared=%v err=%v, want shared cancellation", shared, err)
	}
	// The abandoned waiter must not have taken the build down with it.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

func TestGroupPanicBecomesError(t *testing.T) {
	var g group
	_, _, err := g.Do(context.Background(), "k", func() (any, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a panic-wrapping error", err)
	}
	// The key must be released for the next caller.
	v, _, err := g.Do(context.Background(), "k", func() (any, error) { return "ok", nil })
	if err != nil || v.(string) != "ok" {
		t.Fatalf("after panic: %v, %v", v, err)
	}
}
