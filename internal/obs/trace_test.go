package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const sid = "00f067aa0ba902b7"
	cases := []struct {
		in string
		ok bool
	}{
		{"00-" + tid + "-" + sid + "-01", true},
		{"  00-" + tid + "-" + sid + "-00  ", true},                   // whitespace + unsampled
		{"cc-" + tid + "-" + sid + "-01", true},                       // unknown future version
		{"ff-" + tid + "-" + sid + "-01", false},                      // forbidden version
		{"00-00000000000000000000000000000000-" + sid + "-01", false}, // zero trace
		{"00-" + tid + "-0000000000000000-01", false},                 // zero span
		{"00-" + strings.ToUpper(tid) + "-" + sid + "-01", false},     // uppercase
		{"00-" + tid + "-" + sid, false},                              // missing flags
		{"00-" + tid[:31] + "-" + sid + "-01", false},                 // short trace
		{"", false},
		{"garbage", false},
	}
	for _, tc := range cases {
		sc, ok := ParseTraceparent(tc.in)
		if ok != tc.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", tc.in, ok, tc.ok)
		}
		if ok && (sc.TraceID != tid || sc.SpanID != sid) {
			t.Errorf("ParseTraceparent(%q) = %+v, want ids %s/%s", tc.in, sc, tid, sid)
		}
	}
	if got := (SpanContext{TraceID: tid, SpanID: sid}).Traceparent(); got != "00-"+tid+"-"+sid+"-01" {
		t.Errorf("Traceparent() = %q", got)
	}
	if got := (SpanContext{}).Traceparent(); got != "" {
		t.Errorf("zero SpanContext Traceparent() = %q, want empty", got)
	}
}

func TestSeededIDsDeterministic(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.SeedIDs(99)
	b.SeedIDs(99)
	for i := 0; i < 8; i++ {
		if ta, tb := a.NewTraceID(), b.NewTraceID(); ta != tb {
			t.Fatalf("draw %d: %s != %s", i, ta, tb)
		}
	}
	if sc := (SpanContext{TraceID: a.NewTraceID(), SpanID: a.NewSpanID()}); !sc.Valid() {
		t.Errorf("generated ids invalid: %+v", sc)
	}
}

// TestSpanTreeNesting walks a three-deep chain and checks identity
// propagation: shared trace ID, parent links, one lane.
func TestSpanTreeNesting(t *testing.T) {
	rec := NewRecorder()
	rec.SeedIDs(1)
	root, ctx := rec.StartRequestSpan(context.Background(), "root", CatRequest)
	mid, ctx := rec.StartSpan(ctx, "mid", CatServe)
	leaf, _ := rec.StartSpan(ctx, "leaf", CatArtifact)
	leaf.End()
	mid.End()
	root.End()

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	r, m, l := byName["root"], byName["mid"], byName["leaf"]
	if r.TraceID == "" || m.TraceID != r.TraceID || l.TraceID != r.TraceID {
		t.Fatalf("trace IDs diverge: %s / %s / %s", r.TraceID, m.TraceID, l.TraceID)
	}
	if r.ParentID != "" || m.ParentID != r.SpanID || l.ParentID != m.SpanID {
		t.Errorf("parent chain broken: root<-%q mid<-%q leaf<-%q", r.ParentID, m.ParentID, l.ParentID)
	}
	if m.TID != r.TID || l.TID != r.TID {
		t.Errorf("lanes diverge: %d / %d / %d", r.TID, m.TID, l.TID)
	}
	// Untraced StartSpan (no span in ctx) degrades to a plain batch span.
	sp, sameCtx := rec.StartSpan(context.Background(), "batch", CatStage)
	if sameCtx != context.Background() {
		t.Error("untraced StartSpan modified the context")
	}
	sp.End()
	got := rec.Spans()
	if last := got[len(got)-1]; last.TraceID != "" || last.Name != "batch" {
		t.Errorf("untraced span has trace identity: %+v", last)
	}
}

// TestChromeExportNestedSpans: a traced tree exports with identity in
// args, and the span link surfaces both link fields.
func TestChromeExportNestedSpans(t *testing.T) {
	rec := NewRecorder()
	rec.SeedIDs(5)
	root, ctx := rec.StartRequestSpan(context.Background(), "GET artifacts", CatRequest)
	child, _ := rec.StartSpan(ctx, "coalesce:fig2", CatServe)
	child.Link(SpanContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7"})
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteSpansChromeTrace(&buf, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var rootEv, childEv map[string]any
	for _, ev := range payload.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "GET artifacts":
			rootEv = ev.Args
		case "coalesce:fig2":
			childEv = ev.Args
		}
	}
	if rootEv == nil || childEv == nil {
		t.Fatal("exported trace missing the span events")
	}
	if rootEv["trace_id"] != childEv["trace_id"] {
		t.Errorf("trace_id differs across events: %v vs %v", rootEv["trace_id"], childEv["trace_id"])
	}
	if childEv["parent_id"] != rootEv["span_id"] {
		t.Errorf("child parent_id %v, want root span_id %v", childEv["parent_id"], rootEv["span_id"])
	}
	if childEv["link_trace_id"] != "4bf92f3577b34da6a3ce929d0e0e4736" || childEv["link_span_id"] != "00f067aa0ba902b7" {
		t.Errorf("link args missing or wrong: %v", childEv)
	}
}

// TestSpanRingEviction: a capped recorder keeps exactly the newest cap
// spans, oldest-first, with Seq surviving eviction — including under
// concurrent writers (run with -race).
func TestSpanRingEviction(t *testing.T) {
	rec := NewRecorder()
	rec.SetSpanCap(8)
	if got := rec.SpanCap(); got != 8 {
		t.Fatalf("SpanCap = %d", got)
	}

	const writers, perWriter = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp, _ := rec.StartRequestSpan(context.Background(), "req", CatRequest)
				sp.End()
			}
		}()
	}
	wg.Wait()

	spans := rec.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want cap 8", len(spans))
	}
	const total = writers * perWriter
	for i, sp := range spans {
		// Oldest-first: the retained window is exactly the last 8 of the
		// all-time sequence, in order.
		if want := uint64(total - 8 + i + 1); sp.Seq != want {
			t.Errorf("slot %d: Seq %d, want %d", i, sp.Seq, want)
		}
	}

	// SpansSince resumes from a watermark inside the window...
	since := rec.SpansSince(spans[5].Seq)
	if len(since) != 2 || since[0].Seq != spans[6].Seq {
		t.Errorf("SpansSince(mid) = %d spans starting %d", len(since), since[0].Seq)
	}
	// ...returns everything for an evicted watermark (the gap is visible
	// as the Seq jump), and nothing past the newest.
	if got := rec.SpansSince(0); len(got) != 8 {
		t.Errorf("SpansSince(0) = %d, want all 8", len(got))
	}
	if got := rec.SpansSince(spans[7].Seq); len(got) != 0 {
		t.Errorf("SpansSince(newest) = %d, want 0", len(got))
	}

	// Re-capping trims oldest-first; uncapping resumes unbounded growth.
	rec.SetSpanCap(3)
	spans = rec.Spans()
	if len(spans) != 3 || spans[0].Seq != total-2 {
		t.Errorf("after recap: %d spans, first Seq %d", len(spans), spans[0].Seq)
	}
	rec.SetSpanCap(0)
	for i := 0; i < 5; i++ {
		sp, _ := rec.StartRequestSpan(context.Background(), "more", CatRequest)
		sp.End()
	}
	if got := len(rec.Spans()); got != 8 {
		t.Errorf("uncapped recorder has %d spans, want 3+5", got)
	}
}

// TestHistogramRejectsNonFinite: NaN and ±Inf observations must not
// reach buckets or sums (a single NaN would poison the running sum and
// park in the +Inf bucket); they are counted in Rejected instead.
func TestHistogramRejectsNonFinite(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.h", []float64{1, 2})
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(1.5)
	_, counts, count, sum := h.Snapshot()
	if count != 1 || sum != 1.5 {
		t.Errorf("count %d sum %g, want the single finite observation", count, sum)
	}
	var totalBuckets int64
	for _, c := range counts {
		totalBuckets += c
	}
	if totalBuckets != 1 {
		t.Errorf("bucket total %d, want 1", totalBuckets)
	}
	if got := h.Rejected(); got != 3 {
		t.Errorf("Rejected = %d, want 3", got)
	}
	// The rejection is visible in the exposition as a companion counter.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "t_h_rejected_total 3") {
		t.Errorf("exposition missing rejected counter:\n%s", buf.String())
	}
}

// TestHistogramUpperBoundDeterminism pins the boundary rule: an
// observation exactly on a bucket upper bound lands in that bucket
// (le is inclusive, Prometheus semantics), every time.
func TestHistogramUpperBoundDeterminism(t *testing.T) {
	h := NewRegistry().Histogram("t.b", []float64{1, 2, 5})
	for i := 0; i < 100; i++ {
		h.Observe(2.0)
	}
	uppers, counts, _, _ := h.Snapshot()
	for i, u := range uppers {
		want := int64(0)
		if u == 2.0 {
			want = 100
		}
		if counts[i] != want {
			t.Errorf("bucket le=%g: count %d, want %d", u, counts[i], want)
		}
	}
	// Above every bound → the +Inf overflow bucket (last slot).
	h2 := NewRegistry().Histogram("t.o", []float64{1, 2, 5})
	h2.Observe(99)
	_, counts2, _, _ := h2.Snapshot()
	if counts2[len(counts2)-1] != 1 {
		t.Errorf("overflow bucket count %d, want 1", counts2[len(counts2)-1])
	}
}
