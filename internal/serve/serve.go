// Package serve is the artifact-serving layer of the reproduction: a
// long-running HTTP daemon that exposes every experiment artifact —
// figures, tables, metric summaries, full markdown reports — on top of
// the existing core.Context lazy-cell cache.
//
// The request path is: drain check → ETag revalidation (a matching
// If-None-Match is a 304) → cache hit: when the scenario's context is
// in the LRU and the artifact is built, the stored bytes of the
// requested variant are written at once. A hit takes no admission slot
// (its access-log gate_wait_us is 0), never creates a context, and
// renders nothing after the variant's first request: each artifact
// keeps its result plus every body rendered from it (JSON, markdown,
// each table's CSV, each series' .dat), and /v1/report is assembled
// from those bodies. Only a miss goes on: admission gate (bounded
// concurrency + bounded queue, 429 beyond) → per-scenario context
// lookup (LRU with a hard cap, keyed by the canonical config) →
// singleflight coalescer (N concurrent requests for a cold artifact
// run core.RunOne exactly once, observable as a single
// core.cell.*.miss) → deterministic render. Builds run under the
// server's lifetime context, so a disconnecting client never aborts a
// build other requests are waiting on. With a replica.Coordinator
// (Config.Replica), RunOne checkpoints every build through it — a lone
// daemon is a fleet of one — so daemons sharing a checkpoint directory
// build each artifact once between them, and a directory written by
// cmd/repro -checkpoint-dir warm-starts the daemon, because RunOne keys
// both by core.CheckpointKey.
//
// Determinism contract: for the same config, the bytes served here are
// byte-identical to the artifacts cmd/repro writes — CSV via the same
// report.Table encoder, .dat via the same report.Series encoder,
// markdown via the same core.WriteResultMarkdown, reports via
// core.WriteMarkdownReportSections, which shares its layout with
// core.WriteMarkdownReport — enforced by TestServedBytesIdentical.
//
// The daemon also serves live host-load predictions at GET /v1/predict
// (see predict.go), reusing the same gate, singleflight coalescing and
// LRU machinery; the plain-text body is byte-identical to cmd/predict's
// output for the same scenario, enforced by
// TestPredictServedBytesIdentical.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/replica"
)

// Scenario-parameter guard rails: the query route lets anyone ask for
// an arbitrary config, so bound it to something a single daemon can
// actually simulate rather than letting one URL OOM the process.
const (
	maxMachinesParam = 50000
	maxDaysParam     = 366
)

// Defaults for the operational knobs (0 in Config selects them).
const (
	defaultMaxQueue    = 64
	defaultMaxContexts = 8
)

// Config assembles a Server.
type Config struct {
	// Base is the scenario served when a request carries no overrides;
	// query parameters derive variants from it.
	Base core.Config

	// Experiments overrides the artifact registry (tests inject stubs
	// here). nil serves the paper set plus the extensions, with the
	// default report covering the paper set only — exactly what an
	// uninstrumented `repro -markdown` emits.
	Experiments []core.Experiment

	// Replica, when set, checkpoints every artifact build through the
	// coordinator: shared-store lookup, lease-based distributed
	// singleflight and write-back, so a restart serves from disk instead
	// of re-simulating and daemons sharing the directory build each key
	// once. Keys are shared with cmd/repro -checkpoint-dir. nil builds
	// without checkpoints.
	Replica *replica.Coordinator

	// Rec receives cell/build/experiment instrumentation from every
	// context the daemon creates. nil allocates a fresh recorder.
	Rec *obs.Recorder

	// BaseContext is the server's lifetime context: artifact builds run
	// under it (never under a single request), so cancelling it is the
	// hard stop that aborts in-flight builds. nil means Background.
	BaseContext context.Context

	// MaxInflight bounds concurrently admitted requests — artifact
	// cache misses and predictions; artifact cache hits are answered
	// before the gate (<= 0: GOMAXPROCS). MaxQueue bounds how many more
	// may wait (0: default 64; negative: no queue).
	MaxInflight int
	MaxQueue    int

	// MaxContexts caps the scenario LRU (0: default 8).
	MaxContexts int

	// BuildTimeout, when positive, is the per-artifact build deadline.
	BuildTimeout time.Duration

	// AccessLog, when set, receives one JSONL record per served request
	// (schema: accessRecord). AccessLogSample keeps every Nth request
	// (head-based by arrival index; 0 or 1 logs everything).
	AccessLog       io.Writer
	AccessLogSample int

	// TraceBuffer caps the recorder's span ring so a long-serving
	// daemon holds bounded trace history (0: default 4096; negative:
	// leave the recorder's existing policy untouched — batch tests that
	// share a recorder with a CLI run use this).
	TraceBuffer int
}

// defaultTraceBuffer is the span-ring capacity when Config.TraceBuffer
// is zero. At ~200 bytes per SpanRecord this holds the latest few
// thousand request trees in ~1 MB.
const defaultTraceBuffer = 4096

// Server is the daemon. Create it with New; it is safe for concurrent
// use by any number of HTTP requests.
type Server struct {
	base         core.Config
	baseCtx      context.Context
	rec          *obs.Recorder
	reg          *obs.Registry
	replica      *replica.Coordinator
	gate         *Gate
	lru          *lru[*entry]
	buildTimeout time.Duration

	predictSF    group
	predictCache *lru[*predict.ScenarioReport]

	exps       map[string]core.Experiment
	allList    []core.Experiment // every servable artifact, registry order
	reportList []core.Experiment // default /v1/report set
	extList    []core.Experiment // appended with ?extensions=1

	mux      *http.ServeMux
	draining atomic.Bool
	start    time.Time

	latSketch *latencySketches
	accessLog *accessLogger
	accessSeq atomic.Uint64

	reqTotal    *obs.Counter
	reqInflight *obs.Gauge
	coShared    *obs.Counter
	artifactHit *obs.Counter
	renders     *obs.Counter
	predictHit  *obs.Counter
}

// entry is one cached scenario: the shared core.Context whose lazy
// cells memoize the heavy artifacts, a singleflight group coalescing
// concurrent builds per experiment, and the finished artifacts with
// their rendered bodies.
type entry struct {
	cfg  core.Config
	cctx *core.Context
	sf   group

	mu   sync.RWMutex
	arts map[string]*artifact
}

// artifact returns the built artifact for expID, or nil.
func (e *entry) artifact(expID string) *artifact {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.arts[expID]
}

// New assembles a server from cfg.
func New(cfg Config) *Server {
	rec := cfg.Rec
	if rec == nil {
		rec = obs.NewRecorder()
	}
	reg := rec.Registry()
	baseCtx := cfg.BaseContext
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = defaultMaxQueue
	}
	maxContexts := cfg.MaxContexts
	if maxContexts <= 0 {
		maxContexts = defaultMaxContexts
	}
	s := &Server{
		base:         cfg.Base,
		baseCtx:      baseCtx,
		rec:          rec,
		reg:          reg,
		replica:      cfg.Replica,
		gate:         NewGate(cfg.MaxInflight, maxQueue, reg),
		lru:          newLRU[*entry](maxContexts, reg, "serve.ctx"),
		predictCache: newLRU[*predict.ScenarioReport](maxContexts, reg, "serve.predict.ctx"),
		buildTimeout: cfg.BuildTimeout,
		exps:         make(map[string]core.Experiment),
		start:        time.Now(),
		latSketch:    newLatencySketches(),
		accessLog:    newAccessLogger(cfg.AccessLog, cfg.AccessLogSample),
		reqTotal:     reg.Counter("serve.req.total"),
		reqInflight:  reg.Gauge("serve.req.inflight"),
		coShared:     reg.Counter("serve.coalesce.shared"),
		artifactHit:  reg.Counter("serve.artifact.hit"),
		renders:      reg.Counter("serve.artifact.render"),
		predictHit:   reg.Counter("serve.predict.hit"),
	}
	if cfg.Experiments != nil {
		s.allList = cfg.Experiments
		s.reportList = cfg.Experiments
	} else {
		s.reportList = core.Experiments()
		s.extList = core.Extensions()
		s.allList = append(append([]core.Experiment(nil), s.reportList...), s.extList...)
	}
	for _, e := range s.allList {
		s.exps[e.ID] = e
	}

	// Per-endpoint latency quantiles are computed at scrape time from
	// the live sketches; the registry pulls them via this hook.
	reg.AddSnapshotFunc(s.latSketch.snapshots)

	// Bound the span ring so trace history cannot grow with uptime.
	switch {
	case cfg.TraceBuffer > 0:
		rec.SetSpanCap(cfg.TraceBuffer)
	case cfg.TraceBuffer == 0:
		rec.SetSpanCap(defaultTraceBuffer)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace", s.handleTraceDump)
	s.mux.HandleFunc("GET /debug/trace/{traceID}", s.handleTraceByID)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/artifacts/{id}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/artifacts/{id}/tables/{table}", s.handleTable)
	s.mux.HandleFunc("GET /v1/artifacts/{id}/series/{series}", s.handleSeries)
	s.mux.HandleFunc("GET /v1/predict", s.handlePredict)
	return s
}

// Handler returns the daemon's root handler: per-request tracing,
// accounting, access logging and the drain check in front of the route
// mux.
//
// Trace contract: an incoming `traceparent` header (W3C trace-context)
// makes the request span a child of the remote trace; otherwise the
// request roots a fresh trace. Either way the response carries
// `X-Trace-Id` (and a `Traceparent` continuation), and every span the
// request produces — gate wait, coalescing, experiment run, cell
// builds, checkpoint I/O — shares that trace ID, retrievable from
// GET /debug/trace/{traceID}.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reqTotal.Add(1)
		seq := s.accessSeq.Add(1)
		endpoint := endpointOf(r.URL.Path)

		ctx := r.Context()
		if tp := r.Header.Get("Traceparent"); tp != "" {
			if sc, ok := obs.ParseTraceparent(tp); ok {
				ctx = obs.ContextWithSpan(ctx, sc)
			}
		}
		ri := &obs.ReqInfo{}
		ctx = obs.ContextWithReqInfo(ctx, ri)
		sp, ctx := s.rec.StartRequestSpan(ctx, r.Method+" "+endpoint, obs.CatRequest)
		if sc := sp.Context(); sc.Valid() {
			w.Header().Set("X-Trace-Id", sc.TraceID)
			w.Header().Set("Traceparent", sc.Traceparent())
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		s.reqInflight.Add(1)
		start := time.Now()
		defer func() {
			dur := time.Since(start)
			s.reqInflight.Add(-1)
			s.latSketch.observe(endpoint, dur)
			sp.End()
			if sw.status == 0 {
				sw.status = http.StatusOK // implicit 200: body-less handler
			}
			co, leader, ctxCached, ckptHit, ckptMiss := ri.Flags()
			s.accessLog.log(accessRecord{
				TS:        start.UTC().Format(time.RFC3339Nano),
				Method:    r.Method,
				Path:      r.URL.Path,
				Query:     r.URL.RawQuery,
				Endpoint:  endpoint,
				Status:    sw.status,
				Bytes:     sw.bytes,
				LatencyUS: dur.Microseconds(),
				TraceID:   sp.Context().TraceID,
				GateUS:    ri.GateWaitUS(),
				Coalesced: co,
				Leader:    leader,
				CtxCached: ctxCached,
				CkptHit:   ckptHit,
				CkptMiss:  ckptMiss,
				Seq:       seq,
			})
		}()

		if s.draining.Load() && !drainExempt(endpoint) {
			writeError(sw, http.StatusServiceUnavailable, "draining: not accepting new requests")
			return
		}
		s.mux.ServeHTTP(sw, r)
	})
}

// BeginDrain flips the server into drain mode: subsequent
// build-triggering requests — and /healthz, so load balancers stop
// routing here — get 503 while requests already past the check run to
// completion. /metrics and /debug/trace/* stay up (see drainExempt):
// the terminating replica's final scrape is the one that matters.
// The caller follows up with http.Server.Shutdown to wait for the
// stragglers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Prewarm builds (or loads from the checkpoint store) every registered
// artifact for the base scenario, in registry order, and returns how
// many are warm. It is meant to run in the background after the
// listener is up: requests arriving mid-warm simply coalesce with it.
func (s *Server) Prewarm(ctx context.Context) (int, error) {
	e := s.entryFor(ctx, s.base)
	for i, exp := range s.allList {
		if _, err := s.result(ctx, e, exp); err != nil {
			return i, err
		}
	}
	return len(s.allList), nil
}

// entryFor returns the scenario entry for cfg, creating (and LRU-ing)
// it as needed. A cache hit is noted on the request's annotation bag
// for the access log.
func (s *Server) entryFor(ctx context.Context, cfg core.Config) *entry {
	e, hit := s.lru.getOrCreate(cfg.Canonical(), func() *entry {
		c := core.NewContext(cfg)
		c.SetRecorder(s.rec)
		return &entry{cfg: cfg, cctx: c, arts: make(map[string]*artifact)}
	})
	if hit {
		obs.ReqInfoFrom(ctx).MarkCtxCached()
	}
	return e
}

// cached returns the built artifacts for exps in cfg's scenario, or nil
// if the scenario is not in the context LRU or any of them is unbuilt.
// It is the hit path in front of the gate: it never creates a context.
func (s *Server) cached(ctx context.Context, cfg core.Config, exps ...core.Experiment) []*artifact {
	e, ok := s.lru.get(cfg.Canonical())
	if !ok {
		return nil
	}
	arts := make([]*artifact, len(exps))
	for i, exp := range exps {
		if arts[i] = e.artifact(exp.ID); arts[i] == nil {
			return nil
		}
	}
	obs.ReqInfoFrom(ctx).MarkCtxCached()
	s.artifactHit.Add(int64(len(exps)))
	return arts
}

// result returns exp's artifact for the entry's scenario, serving the
// built artifact when warm and otherwise coalescing all concurrent
// cold requests into one core.RunOne under the server's lifetime
// context. ctx is the requester's wait budget only.
//
// Tracing: a traced request wraps the whole thing in a
// coalesce:<expID> span. If this caller becomes the build leader, the
// build context — the server's lifetime context, never the request's —
// adopts that span, so the exp:/build:/ckpt: spans below RunOne join
// this request's trace. If it joins another request's in-flight build
// instead, its span records a link to the leader's span.
func (s *Server) result(ctx context.Context, e *entry, exp core.Experiment) (*artifact, error) {
	if a := e.artifact(exp.ID); a != nil {
		s.artifactHit.Add(1)
		return a, nil
	}
	ri := obs.ReqInfoFrom(ctx)
	var csp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced {
		csp, ctx = s.rec.StartSpan(ctx, "coalesce:"+exp.ID, obs.CatServe)
		defer csp.End()
	}
	mySC := csp.Context()
	v, shared, leaderSC, err := e.sf.DoLinked(ctx, exp.ID, mySC, func() (any, error) {
		ri.MarkLeader()
		buildCtx := s.baseCtx
		if mySC.Valid() {
			buildCtx = obs.ContextWithSpan(buildCtx, mySC)
		}
		if ri != nil {
			buildCtx = obs.ContextWithReqInfo(buildCtx, ri)
		}
		res, err := core.RunOne(buildCtx, e.cctx, exp, s.buildTimeout, s.replica)
		if err != nil {
			return nil, err
		}
		a := newArtifact(res)
		e.mu.Lock()
		e.arts[exp.ID] = a
		e.mu.Unlock()
		return a, nil
	})
	if shared {
		s.coShared.Add(1)
		ri.MarkCoalesced()
		if leaderSC.Valid() && leaderSC != mySC {
			csp.Link(leaderSC)
		}
	}
	if err != nil {
		return nil, err
	}
	return v.(*artifact), nil
}

// configFor derives the request's scenario from the base config and
// the query overrides ?seed=&machines=&days=&workload_days=, bounded
// by the parameter guard rails.
func (s *Server) configFor(q url.Values) (core.Config, error) {
	cfg := s.base
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("seed: %q is not a uint64", v)
		}
		cfg.Seed = n
	}
	intParam := func(name string, max int) (int, bool, error) {
		v := q.Get(name)
		if v == "" {
			return 0, false, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > max {
			return 0, false, fmt.Errorf("%s: want an integer in [1, %d], got %q", name, max, v)
		}
		return n, true, nil
	}
	if n, ok, err := intParam("machines", maxMachinesParam); err != nil {
		return cfg, err
	} else if ok {
		cfg.Machines = n
	}
	if n, ok, err := intParam("days", maxDaysParam); err != nil {
		return cfg, err
	} else if ok {
		cfg.SimHorizon = int64(n) * 86400
	}
	if n, ok, err := intParam("workload_days", maxDaysParam); err != nil {
		return cfg, err
	} else if ok {
		cfg.WorkloadHorizon = int64(n) * 86400
	}
	return cfg, nil
}

// admit passes the request through the gate, writing the rejection
// (429 on saturation, the context cause otherwise) itself. On true the
// caller holds a slot and must gate.Release. Traced requests record
// the wait as a gate:wait child span; every request records it on its
// annotation bag for the access log.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	ctx := r.Context()
	var gsp *obs.Span
	if _, traced := obs.SpanFromContext(ctx); traced {
		// The returned context is discarded on purpose: the wait is a
		// leaf, not an ancestor of the build spans.
		gsp, _ = s.rec.StartSpan(ctx, "gate:wait", obs.CatServe)
	}
	start := time.Now()
	err := s.gate.Acquire(ctx)
	gsp.End()
	obs.ReqInfoFrom(ctx).SetGateWait(time.Since(start))
	if err == nil {
		return true
	}
	if errors.Is(err, ErrSaturated) {
		writeError(w, http.StatusTooManyRequests, err.Error())
	} else {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("admission wait aborted: %v", err))
	}
	return false
}

// healthStatus is the /healthz payload.
type healthStatus struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Experiments   int     `json:"experiments"`
	Contexts      int     `json:"contexts"`
	Checkpoints   int     `json:"checkpoints"`

	// Checkpoint fields, present only when a coordinator is wired.
	Replica  string   `json:"replica,omitempty"`
	Degraded []string `json:"degraded,omitempty"`
}

// handleHealthz reports liveness. A degraded replica — shared store
// unwritable, lease directory unreachable — still answers 200 with
// status "degraded" and the reasons: it is serving correctly from its
// artifact cache, and flipping the health check would tell the load
// balancer to remove the one replica that still has the bytes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hs := healthStatus{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Experiments:   len(s.allList),
		Contexts:      s.lru.len(),
	}
	if s.replica != nil {
		keys, _ := s.replica.Store().Keys() // best-effort: an unreadable dir reads as 0 warm
		hs.Checkpoints = len(keys)
		hs.Replica = s.replica.ID()
		hs.Degraded = s.replica.Degraded()
		if len(hs.Degraded) > 0 {
			hs.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, hs)
}

// handleMetrics serves the registry snapshot as Prometheus text
// exposition, the only format; any other ?format= is a 400. Write
// errors mean the client went away mid-snapshot; there is nobody left
// to report them to.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prom", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, s.reg.Snapshot())
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("format: want prom, got %q", format))
	}
}

// experimentInfo is one /v1/experiments row.
type experimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	infos := make([]experimentInfo, len(s.allList))
	for i, e := range s.allList {
		infos[i] = experimentInfo{ID: e.ID, Title: e.Title}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "md" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("format: want json or md, got %q", format))
		return
	}
	variant := "json"
	if format == "md" {
		variant = "md"
	}
	s.serveVariant(w, r, variant)
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	s.serveVariant(w, r, "csv:"+r.PathValue("table"))
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	s.serveVariant(w, r, "dat:"+r.PathValue("series"))
}

// serveVariant is the shared body of the artifact routes: resolve the
// experiment and scenario, answer a revalidation or a cache hit in
// front of the gate, and only on a miss take a slot and build.
func (s *Server) serveVariant(w http.ResponseWriter, r *http.Request, variant string) {
	exp, ok := s.exps[r.PathValue("id")]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", r.PathValue("id")))
		return
	}
	cfg, err := s.configFor(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.revalidate(w, r, artifactETag(cfg, exp.ID, variant)) {
		return
	}
	if arts := s.cached(r.Context(), cfg, exp); arts != nil {
		s.writeVariant(w, arts[0], variant)
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.Release()
	a, err := s.result(r.Context(), s.entryFor(r.Context(), cfg), exp)
	if err != nil {
		s.writeBuildError(w, err)
		return
	}
	s.writeVariant(w, a, variant)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	format := q.Get("format")
	if format != "" && format != "json" && format != "md" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("format: want json or md, got %q", format))
		return
	}
	exps := s.reportList
	if v := q.Get("extensions"); v == "1" || v == "true" {
		exps = append(append([]core.Experiment(nil), exps...), s.extList...)
	}
	cfg, err := s.configFor(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	variant := "md"
	if format == "json" {
		variant = "json"
	}
	if s.revalidate(w, r, reportETag(cfg, exps, variant)) {
		return
	}
	if arts := s.cached(r.Context(), cfg, exps...); arts != nil {
		s.writeReport(w, cfg, arts, variant)
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.Release()
	e := s.entryFor(r.Context(), cfg)
	arts := make([]*artifact, len(exps))
	for i, exp := range exps {
		if arts[i], err = s.result(r.Context(), e, exp); err != nil {
			s.writeBuildError(w, err)
			return
		}
	}
	s.writeReport(w, cfg, arts, variant)
}

// writeBuildError maps a build failure onto a status: deadline → 504,
// cancellation (requester gone or server stopping) → 503, anything
// else → 500.
func (s *Server) writeBuildError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// writeJSON marshals v and writes it with status. Marshal failures
// (impossible for the fixed payload types short of NaN metrics) become
// a 500 before any body byte is written.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encode response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// writeBytes writes a fully rendered body with its content type.
func writeBytes(w http.ResponseWriter, contentType string, b []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: msg})
}
