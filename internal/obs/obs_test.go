package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					c.Add(1)
				} else {
					c.AddShard(g, 1)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if again := reg.Counter("hits"); again != c {
		t.Fatal("Counter not idempotent: second lookup returned a new metric")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	h.ObserveN(2, 4)
	le, counts, count, sum := h.Snapshot()
	if len(le) != 3 || len(counts) != 4 {
		t.Fatalf("snapshot shape: le=%v counts=%v", le, counts)
	}
	// <=1: {0.5, 1}; <=10: {5, 10, 2 x4}; <=100: {50}; +Inf: {1000}.
	want := []int64{2, 6, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if wantSum := 0.5 + 1 + 5 + 10 + 50 + 1000 + 8; sum != wantSum {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
}

// TestNilSafety: the "observability off" path is a nil recorder; every
// operation the instrumented code performs must no-op without panicking.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	reg := r.Registry()
	reg.Counter("x").Add(1)
	reg.Counter("x").AddShard(3, 1)
	reg.Gauge("y").Set(1)
	reg.Histogram("z", []float64{1}).Observe(2)
	sp := r.Span("a", CatStage, AutoTID)
	sp.End()
	r.AddSpan("b", CatWorker, 0, time.Now(), time.Second)
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder has spans: %v", got)
	}
	if got := r.Summarize(); got != nil {
		t.Fatalf("nil recorder has summaries: %v", got)
	}
	if got := reg.Snapshot(); got != nil {
		t.Fatalf("nil registry has snapshot: %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsJSONL(&buf); err != nil {
		t.Fatalf("nil WriteMetricsJSONL: %v", err)
	}
}

func TestSpanRecording(t *testing.T) {
	r := NewRecorder()
	r.Span("exp:fig3", CatExperiment, 2).End()
	r.Span("build:sim", CatArtifact, AutoTID).End()

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "exp:fig3" || spans[0].TID != 2 || spans[0].Cat != CatExperiment {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].TID < autoTIDBase {
		t.Fatalf("AutoTID lane %d not above base %d", spans[1].TID, autoTIDBase)
	}
	if spans[0].DurUS < 0 || spans[0].StartUS < 0 {
		t.Fatalf("negative timing: %+v", spans[0])
	}
}

func TestSummarizeAggregates(t *testing.T) {
	r := NewRecorder()
	r.AddSpan("w", CatWorker, 0, time.Now(), 2*time.Millisecond)
	r.AddSpan("w", CatWorker, 1, time.Now(), 3*time.Millisecond)
	r.AddSpan("x", CatStage, 0, time.Now(), time.Millisecond)
	sums := r.Summarize()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Name != "w" || sums[0].Count != 2 || sums[0].Wall != 5*time.Millisecond {
		t.Fatalf("summary[0] = %+v", sums[0])
	}
}

// TestWriteMetricsJSONL checks every line parses as JSON and that the
// snapshot is complete and deterministically ordered.
func TestWriteMetricsJSONL(t *testing.T) {
	r := NewRecorder()
	r.Registry().Counter("cluster.events_dispatched").Add(42)
	r.Registry().Counter("core.cell.sim.miss").Add(1)
	r.Registry().Histogram("cluster.queue_depth", []float64{1, 10}).Observe(3)
	r.Span("exp:fig2", CatExperiment, 0).End()

	var buf bytes.Buffer
	if err := r.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if typ, _ := line["type"].(string); typ == "" {
			t.Fatalf("line missing type: %q", sc.Text())
		}
		names = append(names, line["name"].(string))
	}
	// Metrics come first in name order, so the export is stable and
	// families stay adjacent; spans follow in recording order.
	want := []string{"cluster.events_dispatched", "cluster.queue_depth", "core.cell.sim.miss", "exp:fig2"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("JSONL lines = %v, want %v", names, want)
	}
}

// TestWriteChromeTrace checks the trace is one JSON object with a
// traceEvents array containing metadata plus one X event per span.
func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	r.Span("exp:fig2", CatExperiment, 0).End()
	r.AddSpan("worker-1", CatWorker, 1, time.Now(), time.Millisecond)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var xEvents, metaEvents int
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
		case "M":
			metaEvents++
		}
	}
	if xEvents != 2 {
		t.Fatalf("got %d X events, want 2", xEvents)
	}
	if metaEvents < 3 { // process_name + two thread lanes
		t.Fatalf("got %d metadata events, want >= 3", metaEvents)
	}
}
