package replica

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"
)

// fakeClock is a settable time source for lease tests, so expiry is
// driven by the test instead of real sleeps.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func testLeases(t *testing.T, owners ...string) (*fakeClock, []*leaseDir) {
	t.Helper()
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	out := make([]*leaseDir, len(owners))
	for i, o := range owners {
		out[i] = &leaseDir{dir: dir, owner: o, ttl: 100 * time.Millisecond, now: clk.now}
	}
	return clk, out
}

func TestLeaseAcquireReleaseCycle(t *testing.T) {
	_, ld := testLeases(t, "a", "b")
	a, b := ld[0], ld[1]

	held, mine, takeover, err := a.tryAcquire(context.Background(), "k1")
	if err != nil || !held || takeover {
		t.Fatalf("a.tryAcquire: held=%v takeover=%v err=%v", held, takeover, err)
	}
	held, cur, _, err := b.tryAcquire(context.Background(), "k1")
	if err != nil || held {
		t.Fatalf("b.tryAcquire while a holds: held=%v err=%v", held, err)
	}
	if cur.Owner != "a" {
		t.Fatalf("cur.Owner = %q, want a", cur.Owner)
	}
	if err := a.release(context.Background(), "k1", mine, true); err != nil {
		t.Fatalf("a.release: %v", err)
	}
	held, mine, takeover, err = b.tryAcquire(context.Background(), "k1")
	if err != nil || !held || takeover {
		t.Fatalf("b.tryAcquire after release: held=%v takeover=%v err=%v", held, takeover, err)
	}
	// A release without a stored result leaves a released record,
	// which the next claimant supersedes at once and does not count as
	// a takeover.
	if err := b.release(context.Background(), "k1", mine, false); err != nil {
		t.Fatalf("b.release: %v", err)
	}
	held, _, takeover, err = a.tryAcquire(context.Background(), "k1")
	if err != nil || !held || takeover {
		t.Fatalf("a.tryAcquire after unstored release: held=%v takeover=%v err=%v", held, takeover, err)
	}
}

func TestLeaseExpiryTakeover(t *testing.T) {
	clk, ld := testLeases(t, "a", "b")
	a, b := ld[0], ld[1]

	held, mine, _, _ := a.tryAcquire(context.Background(), "k")
	if !held {
		t.Fatal("a could not acquire a fresh key")
	}
	clk.advance(150 * time.Millisecond) // past the 100ms TTL
	held, bLease, takeover, err := b.tryAcquire(context.Background(), "k")
	if err != nil || !held || !takeover {
		t.Fatalf("b after expiry: held=%v takeover=%v err=%v", held, takeover, err)
	}
	// a's renewal must now fail: the key belongs to b.
	if _, err := a.renew(context.Background(), "k", mine); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("a.renew after takeover: err=%v, want ErrLeaseLost", err)
	}
	// Still lost once b has stored the result and deleted every
	// generation, and the failed renewal does not bring a's back.
	if err := b.release(context.Background(), "k", bLease, true); err != nil {
		t.Fatalf("b.release: %v", err)
	}
	if _, err := a.renew(context.Background(), "k", mine); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("a.renew after b's stored release: err=%v, want ErrLeaseLost", err)
	}
	if _, ok, _ := a.read("k"); ok {
		t.Fatal("a's renewal recreated a lease for a finished key")
	}
}

// TestLeaseReclaimedGenerationStaysSuperseded: once the new holder has
// stored the result and deleted every generation, a third replica may
// claim generation 1 again. The slow holder of the old generation 1
// must still read its lease as lost, not as current again.
func TestLeaseReclaimedGenerationStaysSuperseded(t *testing.T) {
	clk, ld := testLeases(t, "a", "b", "c")
	a, b, c := ld[0], ld[1], ld[2]

	_, mine, _, _ := a.tryAcquire(context.Background(), "k")
	clk.advance(150 * time.Millisecond)
	_, bLease, _, _ := b.tryAcquire(context.Background(), "k")
	if err := b.release(context.Background(), "k", bLease, true); err != nil {
		t.Fatalf("b.release: %v", err)
	}
	held, cLease, _, err := c.tryAcquire(context.Background(), "k")
	if err != nil || !held || cLease.gen != mine.gen {
		t.Fatalf("c.tryAcquire: held=%v gen=%d err=%v, want generation %d", held, cLease.gen, err, mine.gen)
	}
	if lost, err := a.superseded("k", mine); err != nil || !lost {
		t.Fatalf("a.superseded with c holding the reclaimed generation: lost=%v err=%v, want true", lost, err)
	}
	if _, err := a.renew(context.Background(), "k", mine); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("a.renew: err=%v, want ErrLeaseLost", err)
	}
	if rec, _, _ := c.read("k"); rec.Owner != "c" {
		t.Fatalf("generation %d owned by %q after a's renewal, want c", rec.gen, rec.Owner)
	}
}

func TestLeaseRenewExtendsDeadline(t *testing.T) {
	clk, ld := testLeases(t, "a", "b")
	a, b := ld[0], ld[1]

	held, mine, _, _ := a.tryAcquire(context.Background(), "k")
	if !held {
		t.Fatal("acquire failed")
	}
	clk.advance(80 * time.Millisecond)
	mine, err := a.renew(context.Background(), "k", mine)
	if err != nil || mine.Seq != 2 {
		t.Fatalf("renew: seq=%d err=%v", mine.Seq, err)
	}
	// Past the original deadline but inside the renewed one: b must
	// still see a live holder.
	clk.advance(80 * time.Millisecond)
	held, cur, takeover, err := b.tryAcquire(context.Background(), "k")
	if err != nil || held || takeover {
		t.Fatalf("b inside renewed lease: held=%v takeover=%v err=%v", held, takeover, err)
	}
	if cur.Owner != "a" || cur.Seq != 2 {
		t.Fatalf("cur = %+v, want owner a seq 2", cur)
	}
}

func TestLeaseUnparseableFileReadsAsExpired(t *testing.T) {
	_, ld := testLeases(t, "a")
	a := ld[0]
	if err := os.WriteFile(a.path("k", 1), []byte("torn writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := a.read("k")
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if !rec.expired(a.now()) {
		t.Fatal("unparseable lease did not read as expired")
	}
	held, _, takeover, err := a.tryAcquire(context.Background(), "k")
	if err != nil || !held || !takeover {
		t.Fatalf("tryAcquire over garbage: held=%v takeover=%v err=%v", held, takeover, err)
	}
}

func TestLeaseReleaseIgnoresForeignLease(t *testing.T) {
	_, ld := testLeases(t, "a", "b")
	a, b := ld[0], ld[1]
	held, mine, _, _ := a.tryAcquire(context.Background(), "k")
	if !held {
		t.Fatal("acquire failed")
	}
	// b names a's generation but is not its owner.
	foreign := leaseRecord{Owner: "b", gen: mine.gen}
	for _, stored := range []bool{true, false} {
		if err := b.release(context.Background(), "k", foreign, stored); err != nil {
			t.Fatalf("b.release(stored=%v): %v", stored, err)
		}
		if cur, ok, _ := a.read("k"); !ok || cur != mine {
			t.Fatalf("b.release(stored=%v) changed a's lease: ok=%v cur=%+v", stored, ok, cur)
		}
	}
}

// TestLeaseLateClaimantCannotDisplace: a waiter that judged an older
// generation expired, and claims only after a competitor took the key
// over, must lose — one link per generation, one winner.
func TestLeaseLateClaimantCannotDisplace(t *testing.T) {
	clk, ld := testLeases(t, "a", "b", "c")
	a, b, c := ld[0], ld[1], ld[2]

	if held, _, _, _ := a.tryAcquire(context.Background(), "k"); !held {
		t.Fatal("a could not acquire a fresh key")
	}
	stale, _, _ := c.read("k")
	clk.advance(150 * time.Millisecond)
	held, mine, takeover, err := b.tryAcquire(context.Background(), "k")
	if err != nil || !held || !takeover || mine.gen != 2 {
		t.Fatalf("b after expiry: held=%v takeover=%v gen=%d err=%v", held, takeover, mine.gen, err)
	}
	// c links the generation after the expired record it read: b's.
	if _, created, err := c.create("k", stale.gen+1); err != nil || created {
		t.Fatalf("late c.create: created=%v err=%v, want the link refused", created, err)
	}
	if held, cur, _, _ := c.tryAcquire(context.Background(), "k"); held || cur != mine {
		t.Fatalf("c.tryAcquire while b holds: held=%v cur=%+v, want b's lease", held, cur)
	}
	// A stored result retires every generation.
	if err := b.release(context.Background(), "k", mine, true); err != nil {
		t.Fatalf("b.release: %v", err)
	}
	leftovers, _ := os.ReadDir(a.dir)
	for _, e := range leftovers {
		t.Errorf("file %s left in the lease directory", e.Name())
	}
}
