package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A trace is the tree of spans one request
// produces as it crosses the serving layers: the HTTP handler span is
// the root, and every layer below it (admission gate wait, coalescer,
// experiment run, artifact cell builds, checkpoint load/save) records a
// child by deriving its span from the parent carried in the request's
// context.Context. The identifiers follow the W3C Trace Context wire
// shapes — a 128-bit trace ID and 64-bit span IDs, both lowercase hex —
// so an incoming `traceparent` header joins an external trace and the
// echoed trace ID is greppable across systems.
//
// ID generation never touches any experiment random stream: each
// Recorder owns its own source (see SeedIDs), preserving the PR2
// invariant that instrumentation cannot change outputs.

// SpanContext is the identity of one span within one trace: the shared
// 32-hex-char trace ID and the span's own 16-hex-char span ID. The
// zero value is "not traced" (Valid reports false).
type SpanContext struct {
	TraceID string // 32 lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
}

// isLowerHex reports whether s is exactly n lowercase-hex characters
// with at least one non-zero digit (all-zero IDs are invalid per the
// W3C trace-context spec).
func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	nonzero := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			nonzero = true
		}
	}
	return nonzero
}

// Valid reports whether both IDs have the right shape.
func (sc SpanContext) Valid() bool {
	return isLowerHex(sc.TraceID, 32) && isLowerHex(sc.SpanID, 16)
}

// Traceparent renders the W3C header value for this span context
// ("00-<trace-id>-<span-id>-01"), or "" for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// (version-traceid-spanid-flags). Unknown future versions are accepted
// as long as the first four fields parse; version "ff" and malformed
// IDs are rejected.
func ParseTraceparent(h string) (SpanContext, bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	ver := parts[0]
	if len(ver) != 2 || ver == "ff" || !isHexByte(ver) {
		return SpanContext{}, false
	}
	if len(parts[3]) != 2 || !isHexByte(parts[3]) {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// isHexByte reports whether s is two lowercase-hex characters.
func isHexByte(s string) bool {
	if len(s) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// traceCtxKey keys the current span in a context.Context.
type traceCtxKey struct{}

// traceCtxVal is what a context carries for the current span: its
// identity plus the Chrome-trace lane (TID) children inherit so one
// request's spans render on one lane. tid < 0 means "no lane yet"
// (a context seeded from an external traceparent): the first child
// allocates a fresh auto lane.
type traceCtxVal struct {
	sc  SpanContext
	tid int
}

// ContextWithSpan returns ctx carrying sc as the current span — the
// entry point for continuing an external trace (an incoming
// traceparent header, or a coalesced build adopting its leader's
// trace). An invalid sc returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, traceCtxVal{sc: sc, tid: -1})
}

// PinLane allocates a concrete Chrome-trace lane for ctx's span
// context if it has none yet (a context seeded via ContextWithSpan
// across a goroutine boundary carries tid < 0). Spans started below
// the returned context then share one lane instead of each allocating
// their own — one coalesced build renders as one lane. Untraced
// contexts and contexts already on a lane return unchanged.
func (r *Recorder) PinLane(ctx context.Context) context.Context {
	if r == nil {
		return ctx
	}
	v, ok := spanValFromContext(ctx)
	if !ok || v.tid >= 0 {
		return ctx
	}
	v.tid = int(r.nextAuto.Add(1))
	return context.WithValue(ctx, traceCtxKey{}, v)
}

// SpanFromContext returns the current span context carried by ctx.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	v, ok := ctx.Value(traceCtxKey{}).(traceCtxVal)
	return v.sc, ok
}

func spanValFromContext(ctx context.Context) (traceCtxVal, bool) {
	v, ok := ctx.Value(traceCtxKey{}).(traceCtxVal)
	return v, ok
}

// SeedIDs makes this recorder's trace/span ID generation deterministic
// by replacing its entropy with a seeded PCG stream. Tests use it so
// trace assertions are reproducible; production recorders keep the
// default process-random source. Never call it concurrently with spans
// being started.
func (r *Recorder) SeedIDs(seed uint64) {
	if r == nil {
		return
	}
	r.idMu.Lock()
	r.idSrc = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	r.idMu.Unlock()
}

// randU64 draws one word from the recorder's ID source.
func (r *Recorder) randU64() uint64 {
	r.idMu.Lock()
	defer r.idMu.Unlock()
	if r.idSrc == nil {
		return rand.Uint64()
	}
	return r.idSrc.Uint64()
}

// hex64 renders v as 16 lowercase hex chars.
func hex64(v uint64) string {
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return hex.EncodeToString(b[:])
}

// NewTraceID returns a fresh 32-hex-char trace ID.
func (r *Recorder) NewTraceID() string {
	for {
		hi, lo := r.randU64(), r.randU64()
		if hi|lo != 0 {
			return hex64(hi) + hex64(lo)
		}
	}
}

// NewSpanID returns a fresh 16-hex-char span ID.
func (r *Recorder) NewSpanID() string {
	for {
		if v := r.randU64(); v != 0 {
			return hex64(v)
		}
	}
}

// StartRequestSpan starts the root span of a request trace. When ctx
// already carries a span context (an incoming traceparent seeded via
// ContextWithSpan), the new span continues that trace as a child;
// otherwise it roots a brand-new trace. The returned context carries
// the new span, so every StartSpan below it becomes a descendant.
func (r *Recorder) StartRequestSpan(ctx context.Context, name, cat string) (*Span, context.Context) {
	if r == nil {
		return nil, ctx
	}
	if parent, ok := spanValFromContext(ctx); ok {
		return r.startChild(ctx, name, cat, parent)
	}
	sc := SpanContext{TraceID: r.NewTraceID(), SpanID: r.NewSpanID()}
	tid := int(r.nextAuto.Add(1))
	s := &Span{rec: r, name: name, cat: cat, tid: tid, sc: sc, start: time.Now()}
	return s, context.WithValue(ctx, traceCtxKey{}, traceCtxVal{sc: sc, tid: tid})
}

// StartSpan starts a span below whatever span ctx carries. With a
// parent present the child shares its trace ID and Chrome-trace lane
// and records the parent's span ID; without one it degrades to exactly
// Recorder.Span(name, cat, AutoTID) — the untraced batch-pipeline
// behavior — and returns ctx unchanged. Nil recorders return a nil
// (no-op) span.
func (r *Recorder) StartSpan(ctx context.Context, name, cat string) (*Span, context.Context) {
	if r == nil {
		return nil, ctx
	}
	parent, ok := spanValFromContext(ctx)
	if !ok {
		return r.Span(name, cat, AutoTID), ctx
	}
	return r.startChild(ctx, name, cat, parent)
}

func (r *Recorder) startChild(ctx context.Context, name, cat string, parent traceCtxVal) (*Span, context.Context) {
	tid := parent.tid
	if tid < 0 {
		tid = int(r.nextAuto.Add(1))
	}
	sc := SpanContext{TraceID: parent.sc.TraceID, SpanID: r.NewSpanID()}
	s := &Span{
		rec: r, name: name, cat: cat, tid: tid,
		sc: sc, parent: parent.sc.SpanID, start: time.Now(),
	}
	return s, context.WithValue(ctx, traceCtxKey{}, traceCtxVal{sc: sc, tid: tid})
}

// Context returns the span's identity (the zero SpanContext for
// untraced or nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Link attaches the identity of a causally-related span in another
// trace: a request that joined an in-flight coalesced build links its
// span to the leader's, so the two traces cross-reference each other.
func (s *Span) Link(sc SpanContext) {
	if s == nil || !sc.Valid() {
		return
	}
	s.linkTrace, s.linkSpan = sc.TraceID, sc.SpanID
}

// ReqInfo is the per-request annotation bag the serving layer threads
// through context: layers that learn something the access log wants —
// the admission gate (wait time), the coalescer (role), the scenario
// LRU (hit), the checkpoint store (hit/miss) — set fields as the
// request descends, and the access logger reads them once the response
// is written. All fields are atomics because a coalesced build runs on
// its own goroutine. Every method is safe on a nil receiver.
type ReqInfo struct {
	gateWaitUS atomic.Int64
	coalesced  atomic.Bool
	leader     atomic.Bool
	ctxCached  atomic.Bool
	ckptHit    atomic.Bool
	ckptMiss   atomic.Bool
}

type reqInfoKey struct{}

// ContextWithReqInfo returns ctx carrying ri.
func ContextWithReqInfo(ctx context.Context, ri *ReqInfo) context.Context {
	if ri == nil {
		return ctx
	}
	return context.WithValue(ctx, reqInfoKey{}, ri)
}

// ReqInfoFrom returns the request annotations carried by ctx, or nil.
func ReqInfoFrom(ctx context.Context) *ReqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*ReqInfo)
	return ri
}

// SetGateWait records how long the request waited for an admission
// slot.
func (ri *ReqInfo) SetGateWait(d time.Duration) {
	if ri != nil {
		ri.gateWaitUS.Store(d.Microseconds())
	}
}

// GateWaitUS returns the recorded admission wait in microseconds.
func (ri *ReqInfo) GateWaitUS() int64 {
	if ri == nil {
		return 0
	}
	return ri.gateWaitUS.Load()
}

// MarkCoalesced flags that the request joined a build another request
// started.
func (ri *ReqInfo) MarkCoalesced() {
	if ri != nil {
		ri.coalesced.Store(true)
	}
}

// MarkLeader flags that the request's build closure actually ran (it
// was the coalesce leader).
func (ri *ReqInfo) MarkLeader() {
	if ri != nil {
		ri.leader.Store(true)
	}
}

// MarkCtxCached flags that the scenario context was already in the LRU.
func (ri *ReqInfo) MarkCtxCached() {
	if ri != nil {
		ri.ctxCached.Store(true)
	}
}

// MarkCkptHit flags that the artifact was answered from the checkpoint
// store without a build.
func (ri *ReqInfo) MarkCkptHit() {
	if ri != nil {
		ri.ckptHit.Store(true)
	}
}

// MarkCkptMiss flags that the checkpoint store was consulted and had
// no artifact.
func (ri *ReqInfo) MarkCkptMiss() {
	if ri != nil {
		ri.ckptMiss.Store(true)
	}
}

// Flags returns the boolean annotations (coalesced, leader, ctxCached,
// ckptHit, ckptMiss) for the access-log record.
func (ri *ReqInfo) Flags() (coalesced, leader, ctxCached, ckptHit, ckptMiss bool) {
	if ri == nil {
		return
	}
	return ri.coalesced.Load(), ri.leader.Load(), ri.ctxCached.Load(),
		ri.ckptHit.Load(), ri.ckptMiss.Load()
}

// String renders the span context compactly for error messages.
func (sc SpanContext) String() string {
	if !sc.Valid() {
		return "untraced"
	}
	return fmt.Sprintf("%s/%s", sc.TraceID, sc.SpanID)
}
