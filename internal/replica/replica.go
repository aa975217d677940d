// Package replica makes N serving daemons behave like one: a two-tier
// content-addressed artifact cache (in-process payload LRU, then the
// shared ckpt.Store) with lease-based distributed singleflight on top,
// so a key is built once across the whole fleet no matter which replica
// the requests land on — and keeps being served when the replica that
// was building it dies mid-build.
//
// Protocol: the first replica to claim a key atomically publishes
// `<key>.lease.1` in the shared checkpoint directory (owner ID and TTL
// deadline written to a temp file, then hard-linked into place, so the
// file never exists without its record), re-reads the shared store in
// case the previous holder published just before the claim, and
// builds; its heartbeat renews the deadline while the build runs.
// Every other replica waits: polling the shared store for the finished
// artifact, asking sibling replicas over HTTP
// (GET /v1/cache/{key}, each attempt deadline-bounded, rounds spaced by
// jittered exponential backoff, attempts bounded). A waiter that finds
// the lease expired — the builder crashed, or its heartbeat was severed
// — takes the key over by linking the next generation,
// `<key>.lease.2` and so on, so no key can be orphaned and each
// generation has exactly one holder.
//
// Every failure path degrades instead of failing the request: lease
// directory unreachable → build locally without coordination; peers
// unreachable → build locally; shared store unwritable → serve from the
// local tier and report "degraded" through Degraded() (the daemon's
// /healthz stays 200). Chaos sites (replica.lease.acquire/renew/
// release, replica.peer.fetch, plus ckpt.write in the store) let the
// fault-injection suite prove each of those degradations, and the lease
// takeover, deterministically.
package replica

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Chaos sites injected by the fault plan. SiteCkptWrite lives in
// internal/ckpt but is listed here so chaos drivers arm the whole
// replica failure surface from one list.
const (
	SiteLeaseAcquire = "replica.lease.acquire"
	SiteLeaseRenew   = "replica.lease.renew"
	SiteLeaseRelease = "replica.lease.release"
	SitePeerFetch    = "replica.peer.fetch"
	SiteCkptWrite    = "ckpt.write"
)

// ChaosSites returns every fault site in the replica failure surface,
// in a stable order — the site list chaos-enabled daemons arm.
func ChaosSites() []string {
	return []string{SiteLeaseAcquire, SiteLeaseRenew, SiteLeaseRelease, SitePeerFetch, SiteCkptWrite}
}

// Source reports which tier satisfied a Do call.
type Source int

const (
	SourceNone          Source = iota
	SourceLocal                // tier 1: this replica's in-process payload LRU
	SourceStore                // tier 2: the shared checkpoint store
	SourcePeer                 // HTTP cache fill from a sibling replica
	SourceBuild                // built here under a held lease
	SourceBuildUnleased        // built here without coordination (degraded)
)

func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourceStore:
		return "store"
	case SourcePeer:
		return "peer"
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
	// /healthz. Required.
	ID string

	// Store is the shared tier-2 cache; leases live in its directory.
	// A disabled store leaves only tier 1 + peer fill + local builds
	// (no cross-replica singleflight: there is nowhere to put a lease).
	Store *ckpt.Store

	// Peers are sibling base addresses ("host:port" or full URLs) asked
	// for cache fills. The replica's own address must not be listed.
	Peers []string

	// TTL is the lease lifetime between heartbeats (default 5s). A
	// builder that misses renewals for a full TTL is presumed dead.
	TTL time.Duration

	// Heartbeat is the renewal period (default TTL/3).
	Heartbeat time.Duration

	// Poll is how often a waiter re-checks the store and lease state
	// (default TTL/10, clamped to [10ms, 500ms]).
	Poll time.Duration

	// FetchTimeout bounds one peer cache-fill attempt (default 2s).
	FetchTimeout time.Duration

	// Retries bounds peer-fill backoff rounds (default 3).
	Retries int

	// BackoffBase/BackoffMax shape the jittered exponential backoff
	// between peer rounds (defaults 25ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// LocalCap bounds the tier-1 payload LRU (default 64 entries).
	LocalCap int

	// Rec receives replica.* metrics and, for traced requests, the
	// lease-wait and peer-fill spans. nil allocates a fresh recorder.
	Rec *obs.Recorder

	// Client overrides the peer HTTP client (tests inject transports).
	Client *http.Client
}

// Coordinator is one replica's view of the fleet-wide cache. Safe for
// concurrent use by any number of requests.
type Coordinator struct {
	id     string
	store  *ckpt.Store
	leases *leaseDir // nil when the store is disabled
	peerc  *peerSet
	rec    *obs.Recorder

	heartbeatEvery time.Duration
	poll           time.Duration
	retries        int

	local *byteLRU

	dmu      sync.Mutex
	degraded map[string]string
	degGauge *obs.Gauge

	peerMet peerMetrics

	localHit      *obs.Counter
	storeHit      *obs.Counter
	peerHit       *obs.Counter
	buildDone     *obs.Counter
	buildUnleased *obs.Counter
	buildDup      *obs.Counter
	served        *obs.Counter
	leaseAcquired *obs.Counter
	leaseTakeover *obs.Counter
	leaseRenewed  *obs.Counter
	leaseLost     *obs.Counter
	leaseErr      *obs.Counter
	leaseWaits    *obs.Counter
}

// peerMetrics groups the counters the peerSet reports into.
type peerMetrics struct {
	attempts *obs.Counter
	hits     *obs.Counter
	misses   *obs.Counter
	errs     *obs.Counter
}

// New assembles a Coordinator from cfg, applying defaults.
func New(cfg Config) *Coordinator {
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
		poll = ttl / 10
		if poll < 10*time.Millisecond {
			poll = 10 * time.Millisecond
		}
		if poll > 500*time.Millisecond {
			poll = 500 * time.Millisecond
		}
	}
	fetchTimeout := cfg.FetchTimeout
	if fetchTimeout <= 0 {
		fetchTimeout = 2 * time.Second
	}
	retries := cfg.Retries
	if retries <= 0 {
		retries = 3
	}
	base := cfg.BackoffBase
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	max := cfg.BackoffMax
	if max <= 0 {
		max = time.Second
	}
	localCap := cfg.LocalCap
	if localCap <= 0 {
		localCap = 64
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p == "" {
			continue
		}
		if len(p) < 7 || (p[:7] != "http://" && (len(p) < 8 || p[:8] != "https://")) {
			p = "http://" + p
		}
		peers = append(peers, p)
	}
	c := &Coordinator{
		id:    cfg.ID,
		store: cfg.Store,
		rec:   rec,
		peerc: &peerSet{
			peers:        peers,
			client:       client,
			fetchTimeout: fetchTimeout,
			retries:      retries,
			backoffBase:  base,
			backoffMax:   max,
			jitter:       rng.New(ckptSeed(cfg.ID)).Child("replica.backoff"),
		},
		heartbeatEvery: hb,
		poll:           poll,
		retries:        retries,
		local:          newByteLRU(localCap),
		degraded:       make(map[string]string),
		degGauge:       reg.Gauge("replica.degraded"),
		peerMet: peerMetrics{
			attempts: reg.Counter("replica.peer.attempt"),
			hits:     reg.Counter("replica.peer.hit"),
			misses:   reg.Counter("replica.peer.miss"),
			errs:     reg.Counter("replica.peer.err"),
		},
		localHit:      reg.Counter("replica.local.hit"),
		storeHit:      reg.Counter("replica.store.hit"),
		peerHit:       reg.Counter("replica.peer.fill"),
		buildDone:     reg.Counter("replica.build.done"),
		buildUnleased: reg.Counter("replica.build.unleased"),
		buildDup:      reg.Counter("replica.build.duplicate"),
		served:        reg.Counter("replica.cache.served"),
		leaseAcquired: reg.Counter("replica.lease.acquired"),
		leaseTakeover: reg.Counter("replica.lease.takeover"),
		leaseRenewed:  reg.Counter("replica.lease.renewed"),
		leaseLost:     reg.Counter("replica.lease.lost"),
		leaseErr:      reg.Counter("replica.lease.err"),
		leaseWaits:    reg.Counter("replica.lease.wait"),
	}
	if cfg.Store.Enabled() {
		c.leases = &leaseDir{dir: cfg.Store.Dir(), owner: cfg.ID, ttl: ttl, now: time.Now}
		cfg.Store.SetWriter(cfg.ID)
	}
	return c
}

// ckptSeed derives a stable jitter seed from the replica ID, so two
// replicas never share a backoff schedule but each replays its own.
func ckptSeed(id string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// ID returns the replica's name.
func (c *Coordinator) ID() string { return c.id }

// Peers returns the configured sibling base URLs.
func (c *Coordinator) Peers() []string { return c.peerc.peers }

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

// ServeLocal answers a sibling's cache-fill request from this replica's
// own tiers — never by building and never by asking peers, so fills
// cannot recurse across the fleet. The returned payload is the exact
// checkpoint encoding.
func (c *Coordinator) ServeLocal(key string) ([]byte, bool) {
	if payload, ok := c.local.get(key); ok {
		c.served.Add(1)
		return payload, true
	}
	if payload, ok, _ := c.store.LoadRaw(key); ok {
		c.local.put(key, payload)
		c.served.Add(1)
		return payload, true
	}
	return nil, false
}

// Do returns the value for the content-addressed key, trying tier 1,
// tier 2, peer fill and finally building via build under a distributed
// lease. newV allocates the value that store/peer payloads unmarshal
// into; the build path returns build's value directly. ctx bounds the
// whole call (waiting included) and is handed to build.
func (c *Coordinator) Do(ctx context.Context, key string, newV func() any, build func(context.Context) (any, error)) (any, Source, error) {
	if payload, ok := c.local.get(key); ok {
		c.localHit.Add(1)
		if v, err := unmarshalInto(newV, payload); err == nil {
			return v, SourceLocal, nil
		}
		// A corrupt tier-1 entry (impossible short of memory damage)
		// falls through to the authoritative tiers.
	}
	if v, ok := c.loadStore(key, newV); ok {
		return v, SourceStore, nil
	}
	if c.leases == nil {
		// No shared directory, no distributed singleflight: probe the
		// peers once (with retries for transient failures), then build.
		if v, ok := c.peerFill(ctx, key, newV); ok {
			return v, SourcePeer, nil
		}
		return c.buildLocal(ctx, key, newV, build, SourceBuildUnleased)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, SourceNone, context.Cause(ctx)
		}
		held, cur, takeover, err := c.leases.tryAcquire(key)
		if err != nil {
			// Lease infrastructure down (unwritable dir, injected
			// fault): correctness over coordination — build here,
			// accept the duplicate work, flag the degradation.
			c.leaseErr.Add(1)
			c.setDegraded("lease", err)
			return c.buildLocal(ctx, key, newV, build, SourceBuildUnleased)
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
			if v, ok := c.loadStore(key, newV); ok {
				c.leases.release(key, cur, true)
				return v, SourceStore, nil
			}
			return c.buildLeased(ctx, key, cur, newV, build)
		}
		v, src, done, err := c.waitForHolder(ctx, key, cur, newV)
		if done {
			return v, src, err
		}
		// The holder released without publishing a result, or its lease
		// expired: loop and race for the claim.
	}
}

// loadStore is the tier-2 read: validated payload from the shared
// store, promoted into tier 1.
func (c *Coordinator) loadStore(key string, newV func() any) (any, bool) {
	payload, ok, _ := c.store.LoadRaw(key)
	if !ok {
		return nil, false
	}
	v, err := unmarshalInto(newV, payload)
	if err != nil {
		return nil, false
	}
	c.local.put(key, payload)
	c.storeHit.Add(1)
	return v, true
}

// buildLeased runs build while heartbeating the held lease, publishes
// the result to both tiers, and releases.
func (c *Coordinator) buildLeased(ctx context.Context, key string, mine leaseRecord, newV func() any, build func(context.Context) (any, error)) (any, Source, error) {
	stop := c.startHeartbeat(ctx, key, mine)
	v, err := build(ctx)
	stop()
	if err != nil {
		// Give the next claimant a clean shot instead of making it
		// wait out the TTL.
		c.leases.release(key, mine, false)
		return nil, SourceNone, err
	}
	c.buildDone.Add(1)
	stored := c.publish(key, v)
	c.leases.release(key, mine, stored)
	return v, SourceBuild, nil
}

// buildLocal is the uncoordinated fallback: build, publish, count the
// degraded source.
func (c *Coordinator) buildLocal(ctx context.Context, key string, newV func() any, build func(context.Context) (any, error), src Source) (any, Source, error) {
	v, err := build(ctx)
	if err != nil {
		return nil, SourceNone, err
	}
	c.buildDone.Add(1)
	if src == SourceBuildUnleased {
		c.buildUnleased.Add(1)
	}
	c.publish(key, v)
	return v, src, nil
}

// publish installs a finished value in tier 1 and, best-effort, tier 2,
// and reports whether tier 2 now holds it. A store write failure marks
// the coordinator degraded — the artifact still serves from the local
// tier; a duplicate store file (another replica finished first) counts
// the redundant work.
func (c *Coordinator) publish(key string, v any) (stored bool) {
	payload, err := json.Marshal(v)
	if err != nil {
		return false // unmarshalable values are served but not cacheable
	}
	c.local.put(key, payload)
	dup, err := c.store.SaveRaw(key, payload)
	switch {
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
// stopped. A failed renewal ends the heartbeat: if the lease was lost
// the build has already been taken over (finishing it stays harmless —
// identical bytes); if the directory failed the lease will expire and
// some replica, possibly this one, will reclaim the key.
func (c *Coordinator) startHeartbeat(ctx context.Context, key string, mine leaseRecord) (stop func()) {
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
				mine, err = c.leases.renew(key, mine)
				if err != nil {
					if errors.Is(err, ErrLeaseLost) {
						c.leaseLost.Add(1)
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

// waitForHolder parks this replica while another builds key: polling
// the shared store for the published result, running bounded peer-fill
// rounds with jittered backoff in between, and watching the lease.
// done=false means the lease vanished or expired and the caller should
// race to claim the key.
func (c *Coordinator) waitForHolder(ctx context.Context, key string, cur leaseRecord, newV func() any) (v any, src Source, done bool, err error) {
	c.leaseWaits.Add(1)
	var sp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced {
		sp, ctx = c.rec.StartSpan(ctx, "replica:wait:"+shortKey(key), obs.CatReplica)
		defer sp.End()
	}
	round := 0
	nextPeer := time.Now() // first peer round runs immediately
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	for {
		if v, ok := c.loadStore(key, newV); ok {
			return v, SourceStore, true, nil
		}
		rec, ok, rerr := c.leases.read(key)
		now := time.Now()
		switch {
		case rerr != nil:
			// Unreadable lease directory: let the outer loop hit the
			// acquire path, which degrades to a local build.
			return nil, SourceNone, false, nil
		case !ok, rec.expired(now):
			return nil, SourceNone, false, nil
		case rec.gen != cur.gen:
			// A takeover happened under us; keep waiting on the new
			// holder with a fresh peer budget.
			cur, round = rec, 0
		}
		if round < c.retries && !now.Before(nextPeer) {
			res := c.peerc.round(ctx, key, &c.peerMet)
			if res.ok {
				c.local.put(key, res.payload)
				if v, uerr := unmarshalInto(newV, res.payload); uerr == nil {
					c.peerHit.Add(1)
					return v, SourcePeer, true, nil
				}
			}
			round++
			nextPeer = time.Now().Add(c.peerc.backoff(round))
		}
		select {
		case <-ctx.Done():
			return nil, SourceNone, true, context.Cause(ctx)
		case <-ticker.C:
		}
	}
}

// peerFill is the storeless cache-fill: bounded rounds over all peers
// with jittered backoff, stopping early when every peer definitively
// misses (no shared store means a miss everywhere is final — build).
func (c *Coordinator) peerFill(ctx context.Context, key string, newV func() any) (any, bool) {
	var sp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced {
		sp, ctx = c.rec.StartSpan(ctx, "replica:peer:"+shortKey(key), obs.CatReplica)
		defer sp.End()
	}
	for round := 1; round <= c.retries; round++ {
		res := c.peerc.round(ctx, key, &c.peerMet)
		if res.ok {
			c.local.put(key, res.payload)
			if v, err := unmarshalInto(newV, res.payload); err == nil {
				c.peerHit.Add(1)
				return v, true
			}
		}
		if !res.transient || ctx.Err() != nil {
			return nil, false
		}
		if round < c.retries {
			sleep(ctx, c.peerc.backoff(round))
		}
	}
	return nil, false
}

func unmarshalInto(newV func() any, payload []byte) (any, error) {
	v := newV()
	if err := json.Unmarshal(payload, v); err != nil {
		return nil, err
	}
	return v, nil
}

// shortKey abbreviates a 64-hex content address for span names.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// byteLRU is the tier-1 cache: a hard-capped, mutex-guarded LRU of
// checkpoint payloads keyed by content address.
type byteLRU struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	m   map[string]*list.Element
}

type byteItem struct {
	key     string
	payload []byte
}

func newByteLRU(cap int) *byteLRU {
	if cap < 1 {
		cap = 1
	}
	return &byteLRU{cap: cap, ll: list.New(), m: make(map[string]*list.Element)}
}

func (l *byteLRU) get(key string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*byteItem).payload, true
	}
	return nil, false
}

func (l *byteLRU) put(key string, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[key]; ok {
		el.Value.(*byteItem).payload = payload
		l.ll.MoveToFront(el)
		return
	}
	l.m[key] = l.ll.PushFront(&byteItem{key: key, payload: payload})
	for l.ll.Len() > l.cap {
		back := l.ll.Back()
		l.ll.Remove(back)
		delete(l.m, back.Value.(*byteItem).key)
	}
}

func (l *byteLRU) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}
