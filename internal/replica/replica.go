// Package replica makes N builders sharing one checkpoint directory
// behave like one: the shared ckpt.Store is the fleet's
// content-addressed artifact cache, and lease-based distributed
// singleflight on top of it builds a key once across the whole fleet no
// matter which builder asks — and keeps serving it when the builder
// that was working on it dies mid-build. The Coordinator is the only
// reader and writer of experiment checkpoints: core.RunOne sends every
// store-backed build through Do, so a cmd/repro -checkpoint-dir run and
// a lone daemon are each a fleet of one, and concurrent runs or daemons
// over one directory build each key once. Each daemon keeps its own
// finished artifacts in serve's per-artifact cache, so the coordinator
// is consulted only on a miss.
//
// Protocol: the first replica to claim a key atomically publishes
// `<key>.lease.1` in the shared checkpoint directory (owner ID and TTL
// deadline written to a temp file, then hard-linked into place, so the
// file never exists without its record), re-reads the shared store in
// case the previous holder published just before the claim, and
// builds; its heartbeat renews the deadline while the build runs.
// Every other replica waits, polling the shared store for the finished
// artifact and watching the lease. A waiter that finds the lease
// expired — its holder crashed, or its heartbeat was severed — takes
// the key over by linking the next generation, `<key>.lease.2` and so
// on, so no key can be orphaned and each generation has exactly one
// holder. A holder whose heartbeat finds itself superseded cancels its
// build with ErrLeaseLost; one that finds it only after the build
// returns discards the result. Either way it never publishes, and waits
// on the new holder instead.
//
// Every failure path degrades instead of failing the request: lease
// directory unreachable → build locally without coordination, and
// Degraded() reports "lease" (as it does when a release fails and
// leaves a lease to expire); shared store unwritable → the built
// artifact is still served (and kept in serve's artifact cache), and
// Degraded() reports "store" (the daemon's /healthz stays 200). Chaos
// sites (replica.lease.acquire/renew/release, plus ckpt.write in the
// store) let the fault-injection suite prove each of those
// degradations, and the lease takeover, deterministically.
package replica

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// Chaos sites injected by the fault plan. SiteCkptWrite lives in
// internal/ckpt but is listed here so chaos drivers arm the whole
// replica failure surface from one list.
const (
	SiteLeaseAcquire = "replica.lease.acquire"
	SiteLeaseRenew   = "replica.lease.renew"
	SiteLeaseRelease = "replica.lease.release"
	SiteCkptWrite    = "ckpt.write"
)

// ChaosSites returns every fault site in the replica failure surface,
// in a stable order — the site list chaos-enabled daemons arm.
func ChaosSites() []string {
	return []string{SiteLeaseAcquire, SiteLeaseRenew, SiteLeaseRelease, SiteCkptWrite}
}

// Source reports how a Do call was satisfied.
type Source int

const (
	SourceNone          Source = iota
	SourceStore                // read from the shared checkpoint store
	SourceBuild                // built here under a held lease
	SourceBuildUnleased        // built here without coordination (lease directory down)
)

func (s Source) String() string {
	switch s {
	case SourceStore:
		return "store"
	case SourceBuild:
		return "build"
	case SourceBuildUnleased:
		return "build-unleased"
	default:
		return "none"
	}
}

// Config assembles a Coordinator.
type Config struct {
	// ID names this replica in lease files, temp-file suffixes and
	// /healthz. Empty picks a name unique to this coordinator: host,
	// process ID and a per-process sequence number, so two coordinators
	// in one process (tests run several daemons per process) or in two
	// containers that share a PID still own their leases apart.
	ID string

	// Store is the shared cache; leases live in its directory. It must
	// be enabled: without a directory there is nothing to coordinate
	// through, and the caller builds directly instead.
	Store *ckpt.Store

	// TTL is the lease lifetime between heartbeats (default 5s). A
	// builder that misses renewals for a full TTL is presumed dead.
	TTL time.Duration

	// Heartbeat is the renewal period (default TTL/3).
	Heartbeat time.Duration

	// Poll is how often a waiter re-checks the store and lease state
	// (default TTL/10, clamped to [10ms, 500ms]).
	Poll time.Duration

	// Rec receives replica.* metrics and, for traced requests, the
	// store-read, publish and lease-wait spans. nil allocates a fresh
	// recorder.
	Rec *obs.Recorder
}

// Coordinator is one replica's view of the fleet-wide cache. Safe for
// concurrent use by any number of requests.
type Coordinator struct {
	id     string
	store  *ckpt.Store
	leases *leaseDir
	rec    *obs.Recorder

	heartbeatEvery time.Duration
	poll           time.Duration

	dmu      sync.Mutex
	degraded map[string]string
	degGauge *obs.Gauge

	storeHit      *obs.Counter
	buildDone     *obs.Counter
	buildUnleased *obs.Counter
	buildDup      *obs.Counter
	leaseAcquired *obs.Counter
	leaseTakeover *obs.Counter
	leaseRenewed  *obs.Counter
	leaseLost     *obs.Counter
	leaseErr      *obs.Counter
	leaseWaits    *obs.Counter
}

// unnamed numbers the coordinators this process has given default IDs.
var unnamed atomic.Uint64

// New assembles a Coordinator from cfg, applying defaults. It panics on
// a disabled store.
func New(cfg Config) *Coordinator {
	if !cfg.Store.Enabled() {
		panic("replica: New needs an enabled checkpoint store")
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-p%d-%d", host, os.Getpid(), unnamed.Add(1))
	}
	rec := cfg.Rec
	if rec == nil {
		rec = obs.NewRecorder()
	}
	reg := rec.Registry()
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = ttl / 3
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = min(max(ttl/10, 10*time.Millisecond), 500*time.Millisecond)
	}
	c := &Coordinator{
		id:             cfg.ID,
		store:          cfg.Store,
		leases:         &leaseDir{dir: cfg.Store.Dir(), owner: cfg.ID, ttl: ttl, now: time.Now},
		rec:            rec,
		heartbeatEvery: hb,
		poll:           poll,
		degraded:       make(map[string]string),
		degGauge:       reg.Gauge("replica.degraded"),
		storeHit:       reg.Counter("replica.store.hit"),
		buildDone:      reg.Counter("replica.build.done"),
		buildUnleased:  reg.Counter("replica.build.unleased"),
		buildDup:       reg.Counter("replica.build.duplicate"),
		leaseAcquired:  reg.Counter("replica.lease.acquired"),
		leaseTakeover:  reg.Counter("replica.lease.takeover"),
		leaseRenewed:   reg.Counter("replica.lease.renewed"),
		leaseLost:      reg.Counter("replica.lease.lost"),
		leaseErr:       reg.Counter("replica.lease.err"),
		leaseWaits:     reg.Counter("replica.lease.wait"),
	}
	cfg.Store.SetWriter(cfg.ID)
	return c
}

// ID returns the replica's name.
func (c *Coordinator) ID() string { return c.id }

// Store returns the shared checkpoint store the coordinator reads and
// publishes through.
func (c *Coordinator) Store() *ckpt.Store { return c.store }

// Degraded returns the active degradation reasons, sorted; empty means
// every subsystem the coordinator depends on is answering.
func (c *Coordinator) Degraded() []string {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	out := make([]string, 0, len(c.degraded))
	for k, msg := range c.degraded {
		out = append(out, k+": "+msg)
	}
	sort.Strings(out)
	return out
}

func (c *Coordinator) setDegraded(subsystem string, err error) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	c.degraded[subsystem] = err.Error()
	c.degGauge.Set(1)
}

func (c *Coordinator) clearDegraded(subsystem string) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if _, ok := c.degraded[subsystem]; !ok {
		return
	}
	delete(c.degraded, subsystem)
	if len(c.degraded) == 0 {
		c.degGauge.Set(0)
	}
}

// Do returns the value for the content-addressed key: read from the
// shared store, or else claimed, re-checked and built via build under a
// distributed lease, or else waited for while another replica builds
// it. decode turns a stored payload into the value; a payload it
// rejects (say, one that names another artifact) is a miss. The build
// path returns build's value directly and publishes it to the store. ctx
// bounds the whole call (waiting included) and is handed to build. A
// traced ctx gets ckpt:load and ckpt:save child spans around the first
// store read and the publish. A call that ends in a build here counts
// one ckpt.miss, and one that ends in a store read one ckpt.hit, however
// often it polled the store while another replica built.
func (c *Coordinator) Do(ctx context.Context, key string, decode func([]byte) (any, error), build func(context.Context) (any, error)) (any, Source, error) {
	sp := c.span(ctx, "ckpt:load:", key)
	v, ok := c.loadStore(key, decode)
	sp.End()
	if ok {
		return v, SourceStore, nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, SourceNone, context.Cause(ctx)
		}
		held, cur, takeover, err := c.leases.tryAcquire(ctx, key)
		if err != nil {
			// Lease infrastructure down (unwritable dir, injected
			// fault): correctness over coordination — build here,
			// accept the duplicate work, flag the degradation.
			c.leaseErr.Add(1)
			c.setDegraded("lease", err)
			return c.buildLocal(ctx, key, build)
		}
		c.clearDegraded("lease")
		if takeover {
			c.leaseTakeover.Add(1)
		}
		if held {
			c.leaseAcquired.Add(1)
			// Double-checked claim: the previous holder may have
			// published and released between our store miss and this
			// claim. Building now would be the key's second build.
			if v, ok := c.loadStore(key, decode); ok {
				c.release(ctx, key, cur, true)
				return v, SourceStore, nil
			}
			v, lost, err := c.buildLeased(ctx, key, cur, build)
			if !lost {
				c.store.Miss()
				if err != nil {
					return nil, SourceNone, err
				}
				return v, SourceBuild, nil
			}
			// Superseded mid-build: the build was cancelled or discarded,
			// not published; loop to wait on the new holder.
			continue
		}
		v, done, err := c.waitForHolder(ctx, key, decode)
		if err != nil {
			return nil, SourceNone, err
		}
		if done {
			return v, SourceStore, nil
		}
		// The holder released without publishing a result, or its lease
		// expired: loop and race for the claim.
	}
}

// loadStore reads and decodes key's validated payload from the shared
// store.
func (c *Coordinator) loadStore(key string, decode func([]byte) (any, error)) (any, bool) {
	payload, ok, _ := c.store.LoadRaw(key)
	if !ok {
		return nil, false
	}
	v, err := decode(payload)
	if err != nil {
		return nil, false
	}
	c.storeHit.Add(1)
	return v, true
}

// span starts a child span named prefix plus the abbreviated key when
// ctx is traced; untraced calls get a nil span, whose End is a no-op.
func (c *Coordinator) span(ctx context.Context, prefix, key string) *obs.Span {
	if _, traced := obs.SpanFromContext(ctx); !traced {
		return nil
	}
	sp, _ := c.rec.StartSpan(ctx, prefix+shortKey(key), obs.CatReplica)
	return sp
}

// release gives up a held lease. A release that fails leaves a
// live-looking lease behind until its TTL runs out, so it counts as a
// lease error and marks the lease subsystem degraded; the next good
// acquire clears the mark.
func (c *Coordinator) release(ctx context.Context, key string, mine leaseRecord, stored bool) {
	if err := c.leases.release(ctx, key, mine, stored); err != nil {
		c.leaseErr.Add(1)
		c.setDegraded("lease", err)
	}
}

// buildLeased runs build while heartbeating the held lease, publishes
// the result to the store, and releases. lost=true means the lease was
// superseded — a renewal found it while the build ran, and cancelled
// the build with ErrLeaseLost, or the final check after the build found
// it — and the result was not published: the new holder owns the key,
// and publishing too would be a duplicate build.
func (c *Coordinator) buildLeased(ctx context.Context, key string, mine leaseRecord, build func(context.Context) (any, error)) (v any, lost bool, err error) {
	bctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stop := c.startHeartbeat(bctx, key, mine, cancel)
	v, err = build(bctx)
	stop()
	if errors.Is(context.Cause(bctx), ErrLeaseLost) {
		return nil, true, nil
	}
	if err != nil {
		// Give the next claimant a clean shot instead of making it
		// wait out the TTL.
		c.release(ctx, key, mine, false)
		return nil, false, err
	}
	// The build may have finished between a takeover and the next
	// heartbeat tick, which would have caught it. Check once more
	// before publishing. An unreadable directory publishes anyway:
	// the store write is content-addressed and idempotent.
	if superseded, _ := c.leases.superseded(key, mine); superseded {
		c.leaseLost.Add(1)
		return nil, true, nil
	}
	c.buildDone.Add(1)
	stored := c.publish(ctx, key, v)
	c.release(ctx, key, mine, stored)
	return v, false, nil
}

// buildLocal is the uncoordinated fallback: build, publish, count the
// unleased build.
func (c *Coordinator) buildLocal(ctx context.Context, key string, build func(context.Context) (any, error)) (any, Source, error) {
	c.store.Miss()
	v, err := build(ctx)
	if err != nil {
		return nil, SourceNone, err
	}
	c.buildDone.Add(1)
	c.buildUnleased.Add(1)
	c.publish(ctx, key, v)
	return v, SourceBuildUnleased, nil
}

// publish writes a finished value to the store, best-effort, and
// reports whether the store now holds it. An unmarshalable value (NaN
// metrics) is served but not stored, and the store counts it as
// ckpt.skip; a store write failure also marks the coordinator degraded
// — the caller still serves the value; a duplicate store file (another
// replica finished first) counts the redundant work.
func (c *Coordinator) publish(ctx context.Context, key string, v any) (stored bool) {
	sp := c.span(ctx, "ckpt:save:", key)
	defer sp.End()
	dup, err := c.store.Save(key, v)
	switch {
	case errors.Is(err, ckpt.ErrUnmarshalable):
		// Not cacheable, but the store itself is healthy.
	case err != nil:
		c.setDegraded("store", err)
	case dup:
		c.buildDup.Add(1)
		c.clearDegraded("store")
	default:
		c.clearDegraded("store")
	}
	return err == nil
}

// startHeartbeat renews key's lease every heartbeat period until
// stopped. A renewal that reports ErrLeaseLost cancels the build via
// lost, with ErrLeaseLost as the cause. Any other failed renewal ends
// the heartbeat and leaves the build running: the lease will expire
// and some replica, possibly this one, will reclaim the key.
func (c *Coordinator) startHeartbeat(ctx context.Context, key string, mine leaseRecord, lost context.CancelCauseFunc) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(c.heartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				var err error
				mine, err = c.leases.renew(ctx, key, mine)
				if err != nil {
					if errors.Is(err, ErrLeaseLost) {
						c.leaseLost.Add(1)
						lost(ErrLeaseLost)
					} else {
						c.leaseErr.Add(1)
					}
					return
				}
				c.leaseRenewed.Add(1)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// waitForHolder parks this replica while another builds key, polling
// the shared store for the published result and watching the lease.
// done=false means the lease vanished or expired and the caller should
// race to claim the key.
func (c *Coordinator) waitForHolder(ctx context.Context, key string, decode func([]byte) (any, error)) (v any, done bool, err error) {
	c.leaseWaits.Add(1)
	defer c.span(ctx, "replica:wait:", key).End()
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	for {
		if v, ok := c.loadStore(key, decode); ok {
			return v, true, nil
		}
		// An unreadable lease directory also returns: the outer loop's
		// acquire then degrades to a local build.
		rec, ok, rerr := c.leases.read(key)
		if rerr != nil || !ok || rec.expired(c.leases.now()) {
			return nil, false, nil
		}
		select {
		case <-ctx.Done():
			return nil, true, context.Cause(ctx)
		case <-ticker.C:
		}
	}
}

// shortKey abbreviates a 64-hex content address for span names.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
