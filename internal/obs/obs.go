// Package obs is the reproduction's observability substrate: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms), span-based stage tracing of wall time, and exporters
// for JSONL and the Chrome trace_event format (openable in
// chrome://tracing and Perfetto).
//
// Instrumentation is strictly additive: nothing in this package draws
// from the experiment random streams or feeds back into analysis
// results, so a run with instrumentation enabled produces byte-identical
// .dat/.csv/metric outputs to an uninstrumented run (enforced by
// TestInstrumentationByteIdentical in cmd/repro).
//
// Every type is safe for concurrent use, and every method is safe on a
// nil receiver: a nil *Registry hands out nil metrics whose operations
// are no-ops, so instrumented code paths need no "is observability on?"
// branches.
package obs

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// counterShards is the number of cache-line-padded cells a Counter
// stripes its adds over. Power of two so the shard pick is a mask.
const counterShards = 8

// padCell is one counter shard, padded to its own cache line so
// concurrent workers hammering different shards do not false-share.
type padCell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing (or at least add-only) named
// value, striped over padded atomic shards for concurrent writers.
type Counter struct {
	name   string
	shards [counterShards]padCell
}

// Add increments the counter. The shard is picked with the runtime's
// per-P cheap random source, spreading concurrent writers across cache
// lines without any coordination.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.shards[rand.Uint64()&(counterShards-1)].v.Add(delta)
}

// AddShard increments the counter on an explicit shard — the
// contention-free fast path for callers that own a stable worker index
// (internal/par workers pass their worker id).
func (c *Counter) AddShard(shard int, delta int64) {
	if c == nil {
		return
	}
	c.shards[shard&(counterShards-1)].v.Add(delta)
}

// Value sums the shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a named last-write-wins value.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge (CAS loop; gauges are not write-hot).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v <= Upper[i]; an implicit +Inf bucket catches the rest.
type Histogram struct {
	name     string
	uppers   []float64
	buckets  []atomic.Int64 // len(uppers)+1, last = +Inf
	count    atomic.Int64
	sumBits  atomic.Uint64 // float64 bits, CAS-accumulated
	rejected atomic.Int64  // non-finite observations dropped
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations (bulk publish from
// single-threaded local tallies, e.g. the cluster simulator).
//
// Non-finite values are rejected and tallied separately (mirroring
// stats.Histogram): a NaN would otherwise land in the +Inf bucket —
// sort.SearchFloat64s sends every comparison-false value to the end —
// and permanently poison the running sum. A sample exactly equal to a
// bucket's upper bound lands in that bucket (le semantics: bucket i
// counts v <= uppers[i]), deterministically, because SearchFloat64s
// returns the first index with uppers[i] >= v.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n == 0 {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.rejected.Add(n)
		return
	}
	i := sort.SearchFloat64s(h.uppers, v)
	h.buckets[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Rejected returns how many non-finite observations were dropped.
func (h *Histogram) Rejected() int64 {
	if h == nil {
		return 0
	}
	return h.rejected.Load()
}

// Snapshot returns the bucket upper bounds, per-bucket counts (the
// final entry is the +Inf bucket), total count and sum.
func (h *Histogram) Snapshot() (uppers []float64, counts []int64, count int64, sum float64) {
	if h == nil {
		return nil, nil, 0, 0
	}
	uppers = append([]float64(nil), h.uppers...)
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return uppers, counts, h.count.Load(), math.Float64frombits(h.sumBits.Load())
}

// Registry names and owns a process's metrics. Metric constructors are
// idempotent: the first call creates, later calls return the same
// metric, so hot paths should cache the returned pointer.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	snapFuncs  []func() []MetricSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the given ascending bucket
// upper bounds, creating it on first use. Later calls ignore uppers and
// return the existing histogram.
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{
			name:    name,
			uppers:  append([]float64(nil), uppers...),
			buckets: make([]atomic.Int64, len(uppers)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Label is one name="value" pair attached to a metric snapshot
// (Prometheus label semantics). The base registry metrics are
// unlabeled; labeled series come from snapshot funcs (per-endpoint
// latency quantiles, for example).
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// MetricSnapshot is one metric's frozen state, as exported to JSONL
// and Prometheus text.
type MetricSnapshot struct {
	Name   string  `json:"name"`
	Type   string  `json:"type"` // "counter" | "gauge" | "histogram"
	Labels []Label `json:"labels,omitempty"`

	// Counter / gauge.
	Value float64 `json:"value,omitempty"`

	// Histogram: Le[i] pairs with Counts[i]; the final Counts entry is
	// the +Inf bucket.
	Le       []float64 `json:"le,omitempty"`
	Counts   []int64   `json:"counts,omitempty"`
	Count    int64     `json:"count,omitempty"`
	Sum      float64   `json:"sum,omitempty"`
	Rejected int64     `json:"rejected,omitempty"` // non-finite samples dropped
}

// AddSnapshotFunc registers a callback whose snapshots are appended on
// every Snapshot call — the hook by which owners of richer state (the
// serving layer's per-endpoint latency sketches) export computed,
// possibly labeled series at scrape time. The callback must be safe
// for concurrent use and must not call back into this registry.
func (r *Registry) AddSnapshotFunc(fn func() []MetricSnapshot) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.snapFuncs = append(r.snapFuncs, fn)
	r.mu.Unlock()
}

// labelsKey renders labels for sort comparison.
func labelsKey(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// SortSnapshots orders snapshots by name, then labels, then type — the
// canonical export order. Sorting by name first keeps every series of
// one metric family adjacent, which the Prometheus text format
// requires and which makes JSONL dumps diff cleanly across runs.
func SortSnapshots(snaps []MetricSnapshot) {
	slices.SortFunc(snaps, func(a, b MetricSnapshot) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		if c := strings.Compare(labelsKey(a.Labels), labelsKey(b.Labels)); c != 0 {
			return c
		}
		return strings.Compare(a.Type, b.Type)
	})
}

// Snapshot freezes every metric (registry-owned plus snapshot-func
// series), deterministically ordered by metric name so exports diff
// cleanly run-to-run.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Type: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, MetricSnapshot{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.histograms {
		le, counts, count, sum := h.Snapshot()
		out = append(out, MetricSnapshot{
			Name: name, Type: "histogram",
			Le: le, Counts: counts, Count: count, Sum: sum,
			Rejected: h.Rejected(),
		})
	}
	funcs := append([]func() []MetricSnapshot(nil), r.snapFuncs...)
	r.mu.Unlock()
	// Snapshot funcs run outside the registry lock so they may take
	// their own locks freely.
	for _, fn := range funcs {
		out = append(out, fn()...)
	}
	SortSnapshots(out)
	return out
}
