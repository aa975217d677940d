package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/obs"
)

// artifact stands in for a core.Result: any JSON-round-trippable value.
type artifact struct {
	Name string    `json:"name"`
	Vals []float64 `json:"vals"`
}

func decodeArtifact(b []byte) (any, error) {
	v := &artifact{}
	return v, json.Unmarshal(b, v)
}

func buildArtifact(name string, calls *atomic.Int64) func(context.Context) (any, error) {
	return func(context.Context) (any, error) {
		if calls != nil {
			calls.Add(1)
		}
		return &artifact{Name: name, Vals: []float64{1, 2.5, 3}}, nil
	}
}

// testCoordinator opens a coordinator over dir with fast test timings.
func testCoordinator(t *testing.T, dir, id string) *Coordinator {
	t.Helper()
	store, err := ckpt.NewStore(dir, obs.NewRegistry())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return New(Config{
		ID:        id,
		Store:     store,
		TTL:       150 * time.Millisecond,
		Heartbeat: 40 * time.Millisecond,
		Poll:      10 * time.Millisecond,
	})
}

func counter(c *Coordinator, name string) int64 {
	for _, m := range c.rec.Registry().Snapshot() {
		if m.Name == name && m.Type == "counter" {
			return int64(m.Value)
		}
	}
	return 0
}

// TestDoBuildsOnceThenServesFromTiers: the first Do builds under a
// lease, later calls on the same or a sibling replica read the store.
func TestDoBuildsOnceThenServesFromTiers(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	var calls atomic.Int64
	key := ckpt.Key("replica", "tiers")

	v, src, err := a.Do(context.Background(), key, decodeArtifact, buildArtifact("tiers", &calls))
	if err != nil || src != SourceBuild {
		t.Fatalf("first Do: src=%v err=%v", src, err)
	}
	if got := v.(*artifact).Name; got != "tiers" {
		t.Fatalf("value = %q", got)
	}
	_, src, err = a.Do(context.Background(), key, decodeArtifact, buildArtifact("tiers", &calls))
	if err != nil || src != SourceStore {
		t.Fatalf("second Do: src=%v err=%v", src, err)
	}
	// A fresh replica over the same directory reads the store too.
	b := testCoordinator(t, dir, "r1")
	_, src, err = b.Do(context.Background(), key, decodeArtifact, buildArtifact("tiers", &calls))
	if err != nil || src != SourceStore {
		t.Fatalf("sibling Do: src=%v err=%v", src, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	if _, ok, _ := a.leases.read(key); ok {
		t.Fatal("lease file left behind after a completed build")
	}
}

// TestConcurrentReplicasBuildOnce enforces one build fleet-wide.
//
// GIVEN three replicas over one shared store and a key none has built,
// WHEN twelve concurrent Do calls for the key land on them,
// THEN the build runs exactly once and every call returns the same
// bytes.
func TestConcurrentReplicasBuildOnce(t *testing.T) {
	dir := t.TempDir()
	reps := []*Coordinator{
		testCoordinator(t, dir, "r0"),
		testCoordinator(t, dir, "r1"),
		testCoordinator(t, dir, "r2"),
	}
	var calls atomic.Int64
	key := ckpt.Key("replica", "stampede")
	var wg sync.WaitGroup
	payloads := make([]string, len(reps)*4)
	errs := make([]error, len(reps)*4)
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := reps[i%len(reps)].Do(context.Background(), key, decodeArtifact, buildArtifact("stampede", &calls))
			errs[i] = err
			if err == nil {
				b, _ := json.Marshal(v)
				payloads[i] = string(b)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Do[%d]: %v", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("build ran %d times across 3 replicas, want exactly 1", n)
	}
	for i := 1; i < len(payloads); i++ {
		if payloads[i] != payloads[0] {
			t.Fatalf("payload[%d] = %q differs from payload[0] = %q", i, payloads[i], payloads[0])
		}
	}
}

// TestLeaseTakeoverRebuildsByteIdentical enforces that a dead leader
// cannot orphan a key.
//
// GIVEN replica A holding a key's lease with a hung build and its
// first heartbeat severed by a chaos rule on replica.lease.renew,
// WHEN replica B asks for the key,
// THEN B waits out the TTL, takes the lease over, builds once, and
// serves the bytes a clean serial build produces, with no duplicate
// store write.
func TestLeaseTakeoverRebuildsByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	b := testCoordinator(t, dir, "r1")
	key := ckpt.Key("replica", "takeover")

	// Only A's calls carry the plan: B's heartbeat renews normally.
	plan := fault.NewPlan(fault.Rule{Site: SiteLeaseRenew, Hit: 1, Kind: fault.Error})
	building := make(chan struct{})
	actx, kill := context.WithCancel(fault.With(context.Background(), plan))
	defer kill()
	var aErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, aErr = a.Do(actx, key, decodeArtifact, func(ctx context.Context) (any, error) {
			close(building)
			<-ctx.Done() // hangs forever: the leader is dead
			return nil, ctx.Err()
		})
	}()
	<-building

	var calls atomic.Int64
	v, src, err := b.Do(context.Background(), key, decodeArtifact, buildArtifact("takeover", &calls))
	if err != nil {
		t.Fatalf("b.Do: %v", err)
	}
	if src != SourceBuild {
		t.Fatalf("b.Do src = %v, want build (after takeover)", src)
	}
	if calls.Load() != 1 {
		t.Fatalf("b built %d times, want 1", calls.Load())
	}
	if got := counter(b, "replica.lease.takeover"); got < 1 {
		t.Fatalf("replica.lease.takeover = %d, want >= 1", got)
	}
	kill()
	<-done
	if aErr == nil {
		t.Fatal("the killed leader's Do returned nil error")
	}

	// Byte identity: b's served payload must equal a clean serial build.
	want, _ := json.Marshal(&artifact{Name: "takeover", Vals: []float64{1, 2.5, 3}})
	gotB, _ := json.Marshal(v)
	if string(gotB) != string(want) {
		t.Fatalf("taken-over build = %q, want %q", gotB, want)
	}
	stored, ok, err := b.store.LoadRaw(key)
	if err != nil || !ok || string(stored) != string(want) {
		t.Fatalf("store LoadRaw = %q ok=%v err=%v, want %q", stored, ok, err, want)
	}
	// The dead leader never published, so no duplicate build landed.
	if got := counter(a, "replica.build.duplicate") + counter(b, "replica.build.duplicate"); got != 0 {
		t.Fatalf("duplicate builds = %d, want 0", got)
	}
}

// TestLeaseLostCancelsSlowHolder enforces that a superseded holder
// never publishes.
//
// GIVEN replica A building a key under its lease, and replica B whose
// clock runs more than one TTL ahead, so A's live lease reads expired
// to B,
// WHEN B takes the key over and builds it while A's build still runs,
// THEN A's next heartbeat cancels A's build with ErrLeaseLost, A's Do
// returns B's bytes from the store, exactly one build completes, and
// replica.build.duplicate stays 0.
func TestLeaseLostCancelsSlowHolder(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	b := testCoordinator(t, dir, "r1")
	b.leases.now = func() time.Time { return time.Now().Add(2 * b.leases.ttl) }
	key := ckpt.Key("replica", "slowholder")

	var aBuilds atomic.Int64
	var aCause error
	building, aCancelled := make(chan struct{}), make(chan struct{})
	type outcome struct {
		v   any
		src Source
		err error
	}
	aDone := make(chan outcome, 1)
	go func() {
		v, src, err := a.Do(context.Background(), key, decodeArtifact, func(ctx context.Context) (any, error) {
			if aBuilds.Add(1) > 1 {
				return nil, errors.New("A claimed the key a second time")
			}
			close(building)
			<-ctx.Done() // slow: still building when superseded
			aCause = context.Cause(ctx)
			close(aCancelled)
			return nil, ctx.Err()
		})
		aDone <- outcome{v, src, err}
	}()
	<-building

	var calls atomic.Int64
	vB, src, err := b.Do(context.Background(), key, decodeArtifact, func(ctx context.Context) (any, error) {
		// Hold B's generation until A's heartbeat has seen it.
		select {
		case <-aCancelled:
		case <-time.After(5 * time.Second):
		}
		calls.Add(1)
		return &artifact{Name: "slowholder", Vals: []float64{1, 2.5, 3}}, nil
	})
	if err != nil || src != SourceBuild {
		t.Fatalf("b.Do: src=%v err=%v, want a build after takeover", src, err)
	}
	var resA outcome
	select {
	case resA = <-aDone:
	case <-time.After(5 * time.Second):
		t.Fatal("A's Do never returned")
	}
	if !errors.Is(aCause, ErrLeaseLost) {
		t.Fatalf("A's build cancelled with cause %v, want ErrLeaseLost", aCause)
	}
	if resA.err != nil || resA.src != SourceStore {
		t.Fatalf("a.Do: src=%v err=%v, want B's bytes from the store", resA.src, resA.err)
	}
	gotA, _ := json.Marshal(resA.v)
	gotB, _ := json.Marshal(vB)
	if string(gotA) != string(gotB) {
		t.Fatalf("A returned %q, B built %q", gotA, gotB)
	}
	if n := calls.Load() + counter(a, "replica.build.done"); n != 1 || counter(b, "replica.build.done") != 1 {
		t.Fatalf("completed builds: B %d, A %d; want exactly B's one", calls.Load(), counter(a, "replica.build.done"))
	}
	if got := counter(a, "replica.build.duplicate") + counter(b, "replica.build.duplicate"); got != 0 {
		t.Fatalf("replica.build.duplicate = %d, want 0", got)
	}
	if got := counter(a, "replica.lease.lost"); got != 1 {
		t.Fatalf("A's replica.lease.lost = %d, want 1", got)
	}
}

// TestLeaseLostBetweenTicksNeverPublishes enforces that a holder whose
// build finishes after a takeover, but before any heartbeat tick could
// notice it, still never publishes.
//
// GIVEN replica A building a key under its lease with a heartbeat that
// never ticks during the test, and replica B whose clock runs more
// than one TTL ahead,
// WHEN B takes the key over and A's build then returns successfully,
// THEN A's final pre-publish check finds the lease superseded, A's Do
// returns B's bytes from the store, only B's build is counted, and
// replica.build.duplicate stays 0.
func TestLeaseLostBetweenTicksNeverPublishes(t *testing.T) {
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	a.heartbeatEvery = time.Hour
	b := testCoordinator(t, dir, "r1")
	b.leases.now = func() time.Time { return time.Now().Add(2 * b.leases.ttl) }
	key := ckpt.Key("replica", "betweenticks")

	building, bClaimed, aReturned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	type outcome struct {
		v   any
		src Source
		err error
	}
	aDone := make(chan outcome, 1)
	var aBuilds atomic.Int64
	go func() {
		v, src, err := a.Do(context.Background(), key, decodeArtifact, func(ctx context.Context) (any, error) {
			if aBuilds.Add(1) > 1 {
				return nil, errors.New("A claimed the key a second time")
			}
			close(building)
			<-bClaimed
			defer close(aReturned)
			return &artifact{Name: "stale", Vals: []float64{0}}, ctx.Err()
		})
		aDone <- outcome{v, src, err}
	}()
	<-building

	vB, src, err := b.Do(context.Background(), key, decodeArtifact, func(context.Context) (any, error) {
		close(bClaimed)
		<-aReturned // A's build is done before B publishes
		return &artifact{Name: "betweenticks", Vals: []float64{1, 2.5, 3}}, nil
	})
	if err != nil || src != SourceBuild {
		t.Fatalf("b.Do: src=%v err=%v, want a build after takeover", src, err)
	}
	var resA outcome
	select {
	case resA = <-aDone:
	case <-time.After(5 * time.Second):
		t.Fatal("A's Do never returned")
	}
	if resA.err != nil || resA.src != SourceStore {
		t.Fatalf("a.Do: src=%v err=%v, want B's bytes from the store", resA.src, resA.err)
	}
	gotA, _ := json.Marshal(resA.v)
	gotB, _ := json.Marshal(vB)
	if string(gotA) != string(gotB) {
		t.Fatalf("A returned %q, B built %q", gotA, gotB)
	}
	if got := counter(a, "replica.lease.renewed"); got != 0 {
		t.Fatalf("A's heartbeat ticked %d times; the test needs none", got)
	}
	if da, db := counter(a, "replica.build.done"), counter(b, "replica.build.done"); da != 0 || db != 1 {
		t.Fatalf("replica.build.done: A %d, B %d; want only B's one", da, db)
	}
	if got := counter(a, "replica.build.duplicate") + counter(b, "replica.build.duplicate"); got != 0 {
		t.Fatalf("replica.build.duplicate = %d, want 0", got)
	}
	if got := counter(a, "replica.lease.lost"); got != 1 {
		t.Fatalf("A's replica.lease.lost = %d, want 1", got)
	}
}

func TestUnwritableStoreDegradesButServes(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	a.store.SetFaults(fault.NewPlan(fault.Rule{Site: SiteCkptWrite, Kind: fault.Error}))

	key := ckpt.Key("replica", "readonly")
	v, src, err := a.Do(context.Background(), key, decodeArtifact, buildArtifact("readonly", nil))
	if err != nil || src != SourceBuild {
		t.Fatalf("Do under ckpt.write fault: src=%v err=%v", src, err)
	}
	if v.(*artifact).Name != "readonly" {
		t.Fatalf("v = %+v", v)
	}
	deg := a.Degraded()
	if len(deg) != 1 || deg[0][:6] != "store:" {
		t.Fatalf("Degraded() = %v, want one store reason", deg)
	}
	// Nothing reached the store, so the next Do rebuilds and still
	// serves (serve's artifact cache keeps the first result in process).
	v, src, err = a.Do(context.Background(), key, decodeArtifact, buildArtifact("readonly", nil))
	if err != nil || src != SourceBuild || v.(*artifact).Name != "readonly" {
		t.Fatalf("second Do: v=%+v src=%v err=%v, want a successful rebuild", v, src, err)
	}
}

func TestLeaseInfraDownDegradesToUncoordinatedBuild(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	ctx := fault.With(context.Background(), fault.NewPlan(fault.Rule{Site: SiteLeaseAcquire, Kind: fault.Error}))

	var calls atomic.Int64
	_, src, err := a.Do(ctx, ckpt.Key("replica", "noleases"), decodeArtifact, buildArtifact("noleases", &calls))
	if err != nil || src != SourceBuildUnleased {
		t.Fatalf("Do: src=%v err=%v", src, err)
	}
	deg := a.Degraded()
	if len(deg) != 1 || deg[0][:6] != "lease:" {
		t.Fatalf("Degraded() = %v, want one lease reason", deg)
	}
}

func TestDegradationClearsOnRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a := testCoordinator(t, dir, "r0")
	faulted := fault.With(context.Background(), fault.NewPlan(fault.Rule{Site: SiteLeaseAcquire, Hit: 1, Kind: fault.Error}))
	if _, src, _ := a.Do(faulted, ckpt.Key("replica", "dip1"), decodeArtifact, buildArtifact("dip1", nil)); src != SourceBuildUnleased {
		t.Fatalf("faulted Do src = %v", src)
	}
	if len(a.Degraded()) != 1 {
		t.Fatalf("Degraded() = %v, want the lease dip recorded", a.Degraded())
	}
	if _, src, _ := a.Do(context.Background(), ckpt.Key("replica", "dip2"), decodeArtifact, buildArtifact("dip2", nil)); src != SourceBuild {
		t.Fatalf("recovered Do src = %v", src)
	}
	if deg := a.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded() after recovery = %v, want empty", deg)
	}
}

// TestLeaseReleaseFailureDegrades: a release that fails after a good
// build leaves the lease on disk to expire, so it must show: counted as
// a lease error and reported as a lease degradation, which the next
// good acquire clears.
func TestLeaseReleaseFailureDegrades(t *testing.T) {
	t.Parallel()
	a := testCoordinator(t, t.TempDir(), "r0")
	ctx := fault.With(context.Background(), fault.NewPlan(fault.Rule{Site: SiteLeaseRelease, Hit: 1, Kind: fault.Error}))
	key := ckpt.Key("replica", "norelease")
	if _, src, err := a.Do(ctx, key, decodeArtifact, buildArtifact("norelease", nil)); err != nil || src != SourceBuild {
		t.Fatalf("Do: src=%v err=%v, want a build", src, err)
	}
	if got := counter(a, "replica.lease.err"); got != 1 {
		t.Fatalf("replica.lease.err = %d, want 1", got)
	}
	if deg := a.Degraded(); len(deg) != 1 || deg[0][:6] != "lease:" {
		t.Fatalf("Degraded() = %v, want one lease reason", deg)
	}
	if _, ok, _ := a.leases.read(key); !ok {
		t.Fatal("the failed release removed the lease anyway")
	}
	if _, src, err := a.Do(context.Background(), ckpt.Key("replica", "released"), decodeArtifact, buildArtifact("released", nil)); err != nil || src != SourceBuild {
		t.Fatalf("next Do: src=%v err=%v, want a build", src, err)
	}
	if deg := a.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded() after a good acquire = %v, want empty", deg)
	}
}

// TestUnmarshalableServedNotStored: a value the store cannot hold (a
// NaN metric) is still served, counts as ckpt.skip, leaves the store
// healthy and empty, and releases its lease so the next caller builds
// without waiting out the TTL.
func TestUnmarshalableServedNotStored(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	store, err := ckpt.NewStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{ID: "r0", Store: store, TTL: time.Hour})
	key := ckpt.Key("replica", "nan")
	nan := func(context.Context) (any, error) { return map[string]float64{"m": math.NaN()}, nil }
	v, src, err := a.Do(context.Background(), key, decodeArtifact, nan)
	if err != nil || src != SourceBuild || !math.IsNaN(v.(map[string]float64)["m"]) {
		t.Fatalf("Do: v=%v src=%v err=%v, want the NaN value built and served", v, src, err)
	}
	if got := reg.Counter("ckpt.skip").Value(); got != 1 {
		t.Fatalf("ckpt.skip = %d, want 1", got)
	}
	if deg := a.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded() = %v, want none: the store is healthy", deg)
	}
	if _, ok, _ := store.LoadRaw(key); ok {
		t.Fatal("unmarshalable value reached the store")
	}
	done := make(chan Source, 1)
	go func() {
		_, src, _ := a.Do(context.Background(), key, decodeArtifact, nan)
		done <- src
	}()
	select {
	case src := <-done:
		if src != SourceBuild {
			t.Fatalf("second Do src = %v, want a fresh build", src)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Do waited on the released lease")
	}
}

// TestChaosKilledLeaderConverges is the acceptance chaos run.
//
// GIVEN three replicas with four keys in flight, and r0, the victim
// key's leader, killed mid-build by a chaos rule aimed at its lease,
// WHEN the fleet converges,
// THEN each key was built exactly once, at least one lease was taken
// over, no store write was duplicated, and every replica serves
// byte-identical artifacts.
func TestChaosKilledLeaderConverges(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	reps := []*Coordinator{
		testCoordinator(t, dir, "r0"),
		testCoordinator(t, dir, "r1"),
		testCoordinator(t, dir, "r2"),
	}
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = ckpt.Key("chaos", fmt.Sprintf("k%d", i))
	}
	victim := keys[0]

	// The chaos rule: the victim key's first heartbeat renewal fails,
	// killing its builder's lease while the build hangs. Only the doomed
	// leader's request carries the plan, so no other build's heartbeat
	// can consume the fault.
	plan := fault.NewPlan(fault.Rule{Site: SiteLeaseRenew, Hit: 1, Kind: fault.Error})

	// The victim key's first builder hangs until killed; every other
	// build (and the victim's rebuild) completes normally.
	var firstVictimBuild atomic.Bool
	building := make(chan struct{})
	actx, kill := context.WithCancel(fault.With(context.Background(), plan))
	defer kill()
	buildFor := func(key string, calls *atomic.Int64) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			if key == victim && firstVictimBuild.CompareAndSwap(false, true) {
				close(building)
				<-actx.Done()
				return nil, actx.Err()
			}
			calls.Add(1)
			return &artifact{Name: key[:8], Vals: []float64{float64(len(key))}}, nil
		}
	}

	var effective atomic.Int64
	var wg sync.WaitGroup
	var killOnce sync.Once
	results := make(map[string][]string) // key -> payloads observed
	var rmu sync.Mutex
	for _, key := range keys {
		for r := range reps {
			if key == victim && r == 1 {
				// r0 must be the victim's leader: start the other
				// replicas on the victim only once its build hangs.
				<-building
			}
			wg.Add(1)
			go func(key string, r int) {
				defer wg.Done()
				ctx := context.Background()
				if key == victim && r == 0 {
					ctx = actx // the doomed leader's request dies with it
				}
				v, _, err := reps[r].Do(ctx, key, decodeArtifact, buildFor(key, &effective))
				if err != nil {
					if key == victim {
						return // the killed leader's own request may fail
					}
					t.Errorf("Do(%s) on r%d: %v", key[:8], r, err)
					return
				}
				b, _ := json.Marshal(v)
				rmu.Lock()
				results[key] = append(results[key], string(b))
				rmu.Unlock()
			}(key, r)
		}
		if key == victim {
			// Wait for the doomed leader to claim the key, then reap it
			// only after its stale lease has been taken over — a killed
			// process never runs its release path, so cancelling earlier
			// would let the deferred release fire while the lease is
			// still owned, which is a graceful shutdown, not a kill.
			killOnce.Do(func() {
				go func() {
					deadline := time.Now().Add(5 * time.Second)
					for time.Now().Before(deadline) {
						var n int64
						for _, r := range reps {
							n += counter(r, "replica.lease.takeover")
						}
						if n >= 1 {
							break
						}
						time.Sleep(5 * time.Millisecond)
					}
					kill()
				}()
			})
		}
	}
	wg.Wait()

	if n := effective.Load(); n != int64(len(keys)) {
		t.Fatalf("effective builds = %d, want exactly %d (one per key)", n, len(keys))
	}
	var takeovers, dups int64
	for _, r := range reps {
		takeovers += counter(r, "replica.lease.takeover")
		dups += counter(r, "replica.build.duplicate")
	}
	if takeovers < 1 {
		t.Fatalf("replica.lease.takeover = %d, want >= 1", takeovers)
	}
	if dups != 0 {
		t.Fatalf("replica.build.duplicate = %d, want 0", dups)
	}
	for _, key := range keys {
		rmu.Lock()
		got := results[key]
		rmu.Unlock()
		wantN := len(reps)
		if key == victim {
			wantN = len(reps) - 1 // the killed leader returned an error
		}
		if len(got) < wantN {
			t.Fatalf("key %s: %d results, want >= %d", key[:8], len(got), wantN)
		}
		// Byte identity with a clean serial build of the same value.
		want, _ := json.Marshal(&artifact{Name: key[:8], Vals: []float64{float64(len(key))}})
		for i, p := range got {
			if p != string(want) {
				t.Fatalf("key %s result[%d] = %q, want %q", key[:8], i, p, want)
			}
		}
	}
	// The store holds every key's clean serial bytes, and a fresh Do on
	// every replica reads them back without building.
	for _, key := range keys {
		want, _ := json.Marshal(&artifact{Name: key[:8], Vals: []float64{float64(len(key))}})
		stored, ok, err := reps[0].store.LoadRaw(key)
		if err != nil || !ok || string(stored) != string(want) {
			t.Fatalf("store LoadRaw(%s) = %q ok=%v err=%v, want %q", key[:8], stored, ok, err, want)
		}
		for i, r := range reps {
			v, src, err := r.Do(context.Background(), key, decodeArtifact, buildFor(key, &effective))
			got, _ := json.Marshal(v)
			if err != nil || src != SourceStore || string(got) != string(want) {
				t.Fatalf("r%d.Do(%s) after convergence: src=%v err=%v got=%q, want store bytes %q", i, key[:8], src, err, got, want)
			}
		}
	}
	if n := effective.Load(); n != int64(len(keys)) {
		t.Fatalf("fresh Do calls ran %d builds, want none", n-int64(len(keys)))
	}
}

// TestMissCountsBuildsNotReads: ckpt.miss counts the Do calls that end
// in a build. A cold Do reads the store twice (before and after its
// claim) and counts one miss; a waiter on another replica that polls
// the store while the holder builds, then reads the result, counts
// none, and one hit.
func TestMissCountsBuildsNotReads(t *testing.T) {
	dir := t.TempDir()
	open := func(id string) (*Coordinator, *obs.Registry) {
		reg := obs.NewRegistry()
		store, err := ckpt.NewStore(dir, reg)
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		// A TTL far beyond the test's length: the waiter must read the
		// holder's result, never take the lease over.
		return New(Config{ID: id, Store: store, TTL: 10 * time.Second,
			Heartbeat: time.Second, Poll: 10 * time.Millisecond}), reg
	}
	holder, holderReg := open("r0")
	waiter, waiterReg := open("r1")
	key := ckpt.Key("replica", "miss-count")

	started, finish := make(chan struct{}), make(chan struct{})
	holderDone := make(chan Source, 1)
	go func() {
		_, src, err := holder.Do(context.Background(), key, decodeArtifact, func(context.Context) (any, error) {
			close(started)
			<-finish
			return &artifact{Name: "miss-count"}, nil
		})
		if err != nil {
			t.Errorf("holder Do: %v", err)
		}
		holderDone <- src
	}()
	<-started
	waiterDone := make(chan Source, 1)
	go func() {
		_, src, err := waiter.Do(context.Background(), key, decodeArtifact, buildArtifact("miss-count", nil))
		if err != nil {
			t.Errorf("waiter Do: %v", err)
		}
		waiterDone <- src
	}()
	for counter(waiter, "replica.lease.wait") == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * waiter.poll) // the waiter polls the absent key meanwhile
	close(finish)
	if src := <-holderDone; src != SourceBuild {
		t.Fatalf("holder source %v, want build", src)
	}
	if src := <-waiterDone; src != SourceStore {
		t.Fatalf("waiter source %v, want store", src)
	}
	for _, c := range []struct {
		who  string
		reg  *obs.Registry
		name string
		want int64
	}{
		{"holder", holderReg, "ckpt.miss", 1},
		{"holder", holderReg, "ckpt.hit", 0},
		{"waiter", waiterReg, "ckpt.miss", 0},
		{"waiter", waiterReg, "ckpt.hit", 1},
	} {
		if got := c.reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s %s = %d, want %d", c.who, c.name, got, c.want)
		}
	}
}
