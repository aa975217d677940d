// Request-scoped observability for the serving daemon: endpoint
// classification, the traced request wrapper's helpers (status capture,
// access logging), per-endpoint latency sketches, and the /debug/trace
// export endpoints.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// endpointOf maps a request path onto its route family — the bounded
// label set for per-endpoint metrics (an unbounded label like the raw
// path would let a URL scan mint unbounded series).
func endpointOf(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case path == "/debug/trace" || strings.HasPrefix(path, "/debug/trace/"):
		return "debug_trace"
	case path == "/v1/experiments":
		return "experiments"
	case path == "/v1/report":
		return "report"
	case strings.HasPrefix(path, "/v1/artifacts/"):
		rest := path[len("/v1/artifacts/"):]
		switch {
		case strings.Contains(rest, "/tables/"):
			return "tables"
		case strings.Contains(rest, "/series/"):
			return "series"
		default:
			return "artifacts"
		}
	case path == "/v1/predict":
		return "predict"
	default:
		return "other"
	}
}

// drainExempt reports whether an endpoint keeps serving during a
// graceful drain. Telemetry must outlive admission: the final scrape
// and trace pull of a terminating replica are exactly the ones that
// explain why it terminated. /healthz is deliberately NOT exempt — it
// reports draining so load balancers stop routing here.
func drainExempt(endpoint string) bool {
	return endpoint == "metrics" || endpoint == "debug_trace"
}

// statusWriter captures the status code and body size flowing through
// an http.ResponseWriter, for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	// The caching validators are stamped optimistically before admission
	// (the 304 path must run in front of the gate). An error outcome —
	// 429, 503, a failed build — must not go out with a public max-age,
	// or a shared cache would pin the failure for a minute.
	if code >= 400 {
		w.Header().Del("ETag")
		w.Header().Del("Cache-Control")
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Latency-sketch parameters. Request latency is recorded as
// log10(seconds) in a stats.Sketch spanning [1µs, 1000s] with
// latSketchBins equal-width bins: bin width 9/1800 = 0.005 decades, so
// once a sketch spills past its exact buffer a reported quantile is at
// most one bin off — a relative error of 10^0.005−1 ≈ 1.16% (below
// stats.DefaultSketchExactCap samples it is exact). Documented in
// DESIGN.md §12; reprobench uses the same bound for its cross-check.
const (
	latSketchBins = 1800
	latSketchLo   = -6.0 // log10(1µs)
	latSketchHi   = 3.0  // log10(1000s)
)

// LatencySketchRelError is the documented worst-case relative error of
// a sketch-exported latency quantile (one bin width in log10 space).
var LatencySketchRelError = math.Pow(10, (latSketchHi-latSketchLo)/latSketchBins) - 1

// latQuantiles are the quantiles exported per endpoint.
var latQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// latencySketches holds one mergeable latency sketch per endpoint plus
// the raw sum of seconds (the sketch itself sums log-space values,
// which is useless for throughput math).
type latencySketches struct {
	mu sync.Mutex
	m  map[string]*endpointLatency
}

type endpointLatency struct {
	sketch *stats.Sketch
	sumSec float64
}

func newLatencySketches() *latencySketches {
	return &latencySketches{m: make(map[string]*endpointLatency)}
}

// observe records one request's wall time for an endpoint.
func (ls *latencySketches) observe(endpoint string, d time.Duration) {
	sec := d.Seconds()
	if sec <= 0 {
		sec = 1e-9 // clock granularity floor; log10 needs a positive value
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	el, ok := ls.m[endpoint]
	if !ok {
		sk, err := stats.NewSketch(latSketchBins, latSketchLo, latSketchHi)
		if err != nil {
			return // impossible with the fixed constants
		}
		el = &endpointLatency{sketch: sk}
		ls.m[endpoint] = el
	}
	el.sketch.Add(math.Log10(sec))
	el.sumSec += sec
}

// snapshots renders every endpoint's live quantiles, count and sum as
// labeled metric snapshots — the registry snapshot-func payload behind
// /metrics. Endpoints are visited in sorted order so the export is
// deterministic even before SortSnapshots runs.
func (ls *latencySketches) snapshots() []obs.MetricSnapshot {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	endpoints := make([]string, 0, len(ls.m))
	for ep := range ls.m {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	var out []obs.MetricSnapshot
	for _, ep := range endpoints {
		el := ls.m[ep]
		n := el.sketch.Count()
		if n == 0 {
			continue
		}
		epLabel := obs.Label{Name: "endpoint", Value: ep}
		for _, q := range latQuantiles {
			lg := el.sketch.Quantile(q)
			if math.IsNaN(lg) {
				continue
			}
			out = append(out, obs.MetricSnapshot{
				Name: "serve.req.latency.quantile_seconds", Type: "gauge",
				Labels: []obs.Label{
					epLabel,
					{Name: "quantile", Value: strconv.FormatFloat(q, 'g', -1, 64)},
				},
				Value: math.Pow(10, lg),
			})
		}
		out = append(out,
			obs.MetricSnapshot{
				Name: "serve.req.latency.sketch_count", Type: "counter",
				Labels: []obs.Label{epLabel}, Value: float64(n),
			},
			obs.MetricSnapshot{
				Name: "serve.req.latency.sketch_sum_seconds", Type: "counter",
				Labels: []obs.Label{epLabel}, Value: el.sumSec,
			},
		)
	}
	return out
}

// accessRecord is one access-log line. Fields are flat and stable:
// downstream log pipelines key on them (schema documented in README
// "Observability").
type accessRecord struct {
	TS     string `json:"ts"` // RFC3339Nano, UTC
	Method string `json:"method"`
	Path   string `json:"path"`
	Query  string `json:"query,omitempty"` // raw query: it names the scenario

	Endpoint  string `json:"endpoint"`
	Status    int    `json:"status"`
	Bytes     int64  `json:"bytes"`
	LatencyUS int64  `json:"latency_us"`
	TraceID   string `json:"trace_id,omitempty"`
	GateUS    int64  `json:"gate_wait_us"`
	Coalesced bool   `json:"coalesced"`
	Leader    bool   `json:"leader"`
	CtxCached bool   `json:"ctx_cached"`
	CkptHit   bool   `json:"ckpt_hit"`
	CkptMiss  bool   `json:"ckpt_miss"`
	Seq       uint64 `json:"seq"` // 1-based request index (pre-sampling)
}

// accessLogger serializes access records to one writer, sampling
// deterministically by request index: with sample N, requests
// 1, N+1, 2N+1, ... are logged (head-based: the decision depends only
// on arrival order, so a replayed request stream logs the same lines).
type accessLogger struct {
	mu     sync.Mutex
	enc    *json.Encoder
	sample uint64
}

func newAccessLogger(w io.Writer, sample int) *accessLogger {
	if w == nil {
		return nil
	}
	if sample < 1 {
		sample = 1
	}
	return &accessLogger{enc: json.NewEncoder(w), sample: uint64(sample)}
}

// log writes the record if its Seq falls on the sampling lattice.
// Nil-safe: a daemon without -access-log carries a nil logger.
func (al *accessLogger) log(rec accessRecord) {
	if al == nil {
		return
	}
	if (rec.Seq-1)%al.sample != 0 {
		return
	}
	al.mu.Lock()
	defer al.mu.Unlock()
	_ = al.enc.Encode(rec) // a full disk must not fail requests
}

// handleTraceByID serves GET /debug/trace/{traceID}: every retained
// span of one trace, as JSONL (default) or a loadable Chrome trace
// (?format=chrome). 404 means the trace is unknown or fully evicted
// from the span ring.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceID")
	spans := s.rec.TraceSpans(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no retained spans for trace %q", id))
		return
	}
	s.writeSpans(w, r, spans)
}

// handleTraceDump serves GET /debug/trace: the retained span buffer,
// incrementally. ?since=SEQ returns only spans with seq > SEQ — each
// exported span carries its seq, so a poller resumes from the last one
// it saw and pays only for what is new (eviction shows up as a seq
// gap, not silent loss).
func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("since: %q is not a uint64", v))
			return
		}
		since = n
	}
	s.writeSpans(w, r, s.rec.SpansSince(since))
}

// writeSpans renders spans in the negotiated trace format.
func (s *Server) writeSpans(w http.ResponseWriter, r *http.Request, spans []obs.SpanRecord) {
	switch format := r.URL.Query().Get("format"); format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteSpansChromeTrace(w, spans)
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = obs.WriteSpansJSONL(w, spans)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("format: want jsonl or chrome, got %q", format))
	}
}
