package obs

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories used by the pipeline. Exported so consumers filter
// span records without string literals scattering.
const (
	CatExperiment = "experiment" // one paper artifact regenerated
	CatArtifact   = "artifact"   // one memoized Context cell built
	CatWorker     = "worker"     // one par worker's busy interval
	CatStage      = "stage"      // a coarse pipeline stage (emit, report, ...)
	CatRequest    = "request"    // one served HTTP request (root span)
	CatServe      = "serve"      // serving internals: gate wait, coalesce, ckpt
	CatReplica    = "replica"    // cross-replica coordination: lease wait
)

// AutoTID asks the recorder to assign the span its own fresh trace
// lane, for work not pinned to a worker (artifact builds).
const AutoTID = -1

// SpanRecord is one finished span: what ran, where (trace lane), and
// when and for how long (relative to the recorder's epoch).
type SpanRecord struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	TID  int    `json:"tid"`

	StartUS int64 `json:"start_us"` // µs since the recorder's epoch
	DurUS   int64 `json:"dur_us"`

	// Trace identity, set only for request-scoped spans (empty for the
	// batch pipeline's untraced spans; omitted from JSON when empty so
	// batch exports are unchanged).
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"` // parent span within the same trace
	// Cross-trace link: a coalesced request's span points at the
	// in-flight build leader's span in the leader's own trace.
	LinkTraceID string `json:"link_trace_id,omitempty"`
	LinkSpanID  string `json:"link_span_id,omitempty"`

	// Seq is the record's position in the recorder's all-time span
	// sequence (1-based, monotonically increasing, never reused). It
	// survives ring-buffer eviction, so incremental exporters can poll
	// SpansSince(lastSeq) without re-reading history.
	Seq uint64 `json:"seq,omitempty"`
}

// Recorder collects spans and owns the run's metrics registry. The
// zero of *Recorder (nil) is a valid "observability off" recorder:
// every method no-ops and Span returns a nil (no-op) span.
type Recorder struct {
	epoch    time.Time
	registry *Registry

	// Span storage. With cap == 0 spans grows without bound (the batch
	// pipeline's mode: every span is exported at exit). SetSpanCap turns
	// it into a fixed-size ring: spans holds at most cap records and
	// ringStart indexes the oldest, so a long-lived daemon keeps the
	// freshest cap spans in bounded memory.
	mu        sync.Mutex
	spans     []SpanRecord
	cap       int
	ringStart int
	nextSeq   uint64 // all-time span count; next record gets nextSeq+1

	nextAuto atomic.Int64 // next AutoTID lane

	// Trace/span ID entropy. nil idSrc means the shared process source
	// (rand/v2 global); SeedIDs installs a deterministic PCG for tests.
	idMu  sync.Mutex
	idSrc *rand.Rand
}

// NewRecorder returns a recorder whose epoch is now, with a fresh
// registry attached.
func NewRecorder() *Recorder {
	r := &Recorder{epoch: time.Now(), registry: NewRegistry()}
	r.nextAuto.Store(autoTIDBase)
	return r
}

// autoTIDBase keeps auto-assigned lanes clear of worker indices.
const autoTIDBase = 100

// Registry returns the recorder's metrics registry (nil for a nil
// recorder, which is itself a valid no-op registry receiver).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.registry
}

// Span is an in-flight measurement started by Recorder.Span. End it
// exactly once; a nil span ends as a no-op.
type Span struct {
	rec   *Recorder
	name  string
	cat   string
	tid   int
	start time.Time

	// Trace fields (zero for untraced batch spans).
	sc                  SpanContext
	parent              string
	linkTrace, linkSpan string
}

// Span starts a span. tid selects the Chrome-trace lane: par workers
// pass their worker index, AutoTID allocates a dedicated lane.
func (r *Recorder) Span(name, cat string, tid int) *Span {
	if r == nil {
		return nil
	}
	if tid == AutoTID {
		tid = int(r.nextAuto.Add(1))
	}
	return &Span{rec: r, name: name, cat: cat, tid: tid, start: time.Now()}
}

// End finishes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.addRecord(SpanRecord{
		Name:        s.name,
		Cat:         s.cat,
		TID:         s.tid,
		StartUS:     s.start.Sub(s.rec.epoch).Microseconds(),
		DurUS:       time.Since(s.start).Microseconds(),
		TraceID:     s.sc.TraceID,
		SpanID:      s.sc.SpanID,
		ParentID:    s.parent,
		LinkTraceID: s.linkTrace,
		LinkSpanID:  s.linkSpan,
	})
}

// AddSpan records an already-measured interval (used by the par
// observer, whose worker intervals are timed inside the loop itself).
func (r *Recorder) AddSpan(name, cat string, tid int, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.addRecord(SpanRecord{
		Name:    name,
		Cat:     cat,
		TID:     tid,
		StartUS: start.Sub(r.epoch).Microseconds(),
		DurUS:   dur.Microseconds(),
	})
}

func (r *Recorder) addRecord(rec SpanRecord) {
	r.mu.Lock()
	r.nextSeq++
	rec.Seq = r.nextSeq
	switch {
	case r.cap <= 0:
		r.spans = append(r.spans, rec)
	case len(r.spans) < r.cap:
		r.spans = append(r.spans, rec)
	default:
		// Ring is full: overwrite the oldest slot and advance the start.
		r.spans[r.ringStart] = rec
		r.ringStart = (r.ringStart + 1) % r.cap
	}
	r.mu.Unlock()
}

// SetSpanCap bounds the recorder's span storage to the newest n records
// (a ring buffer evicting oldest-first). n <= 0 restores unbounded
// growth. Existing spans beyond the new cap are dropped oldest-first.
// Long-lived daemons call this once at startup so trace history holds
// bounded memory no matter how long the process serves.
func (r *Recorder) SetSpanCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	linear := r.linearizeLocked()
	if n > 0 && len(linear) > n {
		linear = append([]SpanRecord(nil), linear[len(linear)-n:]...)
	}
	r.spans = linear
	r.cap = n
	r.ringStart = 0
}

// SpanCap returns the configured ring capacity (0 = unbounded).
func (r *Recorder) SpanCap() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cap
}

// linearizeLocked returns the spans oldest-first regardless of ring
// wrap. Caller holds r.mu. The returned slice aliases r.spans only in
// the non-wrapped case; callers that retain it must copy.
func (r *Recorder) linearizeLocked() []SpanRecord {
	if r.cap <= 0 || r.ringStart == 0 {
		return r.spans
	}
	out := make([]SpanRecord, 0, len(r.spans))
	out = append(out, r.spans[r.ringStart:]...)
	out = append(out, r.spans[:r.ringStart]...)
	return out
}

// Spans returns a copy of every retained span in recording order
// (oldest-first; under a span cap, the newest cap records).
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.linearizeLocked()...)
}

// TraceSpans returns the retained spans belonging to one trace, in
// recording order. An empty result means the trace is unknown — or has
// been fully evicted from the ring.
func (r *Recorder) TraceSpans(traceID string) []SpanRecord {
	if r == nil || traceID == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanRecord
	for _, sp := range r.linearizeLocked() {
		if sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	return out
}

// SpansSince returns retained spans with Seq > after, in recording
// order — the incremental-export primitive: a poller keeps the last Seq
// it saw and asks only for what is new. If eviction outran the poller,
// the gap is visible as a jump in Seq.
func (r *Recorder) SpansSince(after uint64) []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	linear := r.linearizeLocked()
	// Seq is strictly increasing in recording order, so binary-search
	// for the first record past the watermark.
	lo, hi := 0, len(linear)
	for lo < hi {
		mid := (lo + hi) / 2
		if linear[mid].Seq <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return append([]SpanRecord(nil), linear[lo:]...)
}

// SpanSummary aggregates the spans sharing one name.
type SpanSummary struct {
	Name  string
	Cat   string
	Count int
	Wall  time.Duration
}

// Summarize groups spans by name (first-seen order preserved) and sums
// wall time — the rows of the CLI timing table.
func (r *Recorder) Summarize() []SpanSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	index := make(map[string]int)
	var out []SpanSummary
	for _, sp := range r.linearizeLocked() {
		i, ok := index[sp.Name]
		if !ok {
			i = len(out)
			index[sp.Name] = i
			out = append(out, SpanSummary{Name: sp.Name, Cat: sp.Cat})
		}
		out[i].Count++
		out[i].Wall += time.Duration(sp.DurUS) * time.Microsecond
	}
	return out
}
