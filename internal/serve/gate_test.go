package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestGateAdmitsUpToInflight(t *testing.T) {
	g := NewGate(2, 0, nil)
	for i := 0; i < 2; i++ {
		if err := g.Acquire(context.Background()); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	// No queue: the third caller is rejected, not parked.
	if err := g.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("acquire beyond capacity: %v, want ErrSaturated", err)
	}
	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestGateQueuesThenRejects enforces bounded admission.
//
// GIVEN a gate with one slot, held, and a one-deep queue, occupied,
// WHEN another caller arrives,
// THEN it gets ErrSaturated and serve.gate.rejected counts it, and the
// queued caller is admitted as soon as the slot is released.
func TestGateQueuesThenRejects(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(1, 1, reg)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(context.Background()) }()
	waitFor(t, "one queued waiter", func() bool { return reg.Gauge("serve.gate.queued").Value() == 1 })

	if err := g.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("full queue: %v, want ErrSaturated", err)
	}
	if got := reg.Counter("serve.gate.rejected").Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	g.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v, want admission", err)
	}
	if got := reg.Gauge("serve.gate.inflight").Value(); got != 1 {
		t.Errorf("inflight gauge = %v, want 1", got)
	}
}

// TestGateQueuedCallerHonorsContext enforces that a queued wait can be
// abandoned without leaking a slot.
//
// GIVEN a gate with its one slot held and a caller queued for it,
// WHEN the queued caller's context is cancelled,
// THEN it returns context.Canceled, and after the holder releases, the
// slot can be acquired again.
func TestGateQueuedCallerHonorsContext(t *testing.T) {
	g := NewGate(1, 4, nil)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- g.Acquire(ctx) }()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	// The abandoned wait must not leak queue accounting: the slot can
	// still be released and re-acquired.
	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after cancelled wait: %v", err)
	}
}
