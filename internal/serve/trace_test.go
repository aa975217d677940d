package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// fetchTraceSpans pulls /debug/trace/{id} and decodes the JSONL body.
func fetchTraceSpans(t *testing.T, client *http.Client, base, traceID string) []obs.SpanRecord {
	t.Helper()
	resp, err := client.Get(base + "/debug/trace/" + traceID)
	if err != nil {
		t.Fatalf("GET /debug/trace/%s: %v", traceID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace/%s: status %d", traceID, resp.StatusCode)
	}
	var out []obs.SpanRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

// TestColdRequestTraceChain is the tracing acceptance test: one cold
// artifact request must produce one trace whose spans cover the
// handler, the gate wait, the coalescer, the checkpoint probe, the
// experiment run and the artifact cell builds — all sharing the trace
// ID the response echoed, with the parent chain intact, retrievable
// live from /debug/trace/{traceID}.
func TestColdRequestTraceChain(t *testing.T) {
	rec := obs.NewRecorder()
	rec.SeedIDs(42) // deterministic IDs so reruns see identical traces
	s := New(Config{Base: tinyConfig(), Rec: rec, Replica: coordinator(t, t.TempDir(), "", rec)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/v1/artifacts/fig2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact request: status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", traceID)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, traceID) {
		t.Errorf("Traceparent %q does not carry trace ID %s", tp, traceID)
	}

	spans := fetchTraceSpans(t, client, ts.URL, traceID)
	byName := make(map[string]obs.SpanRecord, len(spans))
	builds := 0
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %s has trace %s, want %s", sp.Name, sp.TraceID, traceID)
		}
		byName[sp.Name] = sp
		if strings.HasPrefix(sp.Name, "build:") {
			builds++
		}
	}
	root, ok := byName["GET artifacts"]
	if !ok {
		t.Fatalf("no root handler span; got %v", names(spans))
	}
	if root.ParentID != "" || root.Cat != obs.CatRequest {
		t.Errorf("root span: parent %q cat %q, want root request span", root.ParentID, root.Cat)
	}
	key := core.CheckpointKey(tinyConfig(), "fig2")[:12]
	for _, want := range []struct{ name, parent string }{
		{"gate:wait", root.SpanID},
		{"coalesce:fig2", root.SpanID},
		{"ckpt:load:" + key, byName["coalesce:fig2"].SpanID},
		{"exp:fig2", byName["coalesce:fig2"].SpanID},
		{"ckpt:save:" + key, byName["coalesce:fig2"].SpanID},
	} {
		sp, ok := byName[want.name]
		if !ok {
			t.Errorf("span %s missing from trace; got %v", want.name, names(spans))
			continue
		}
		if sp.ParentID != want.parent {
			t.Errorf("span %s parent = %q, want %q", want.name, sp.ParentID, want.parent)
		}
	}
	if builds == 0 {
		t.Errorf("no build:* cell spans in trace; got %v", names(spans))
	}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "build:") && sp.ParentID != byName["exp:fig2"].SpanID {
			t.Errorf("build span %s parent = %q, want the exp span %q", sp.Name, sp.ParentID, byName["exp:fig2"].SpanID)
		}
	}

	// Lane discipline: handler-side spans share the request's lane; the
	// build side (which runs on the coalescer's goroutine and may
	// outlive the request) shares one pinned lane of its own.
	buildLane := byName["exp:fig2"].TID
	for _, sp := range spans {
		switch {
		case sp.Name == "gate:wait" || strings.HasPrefix(sp.Name, "coalesce:"):
			if sp.TID != root.TID {
				t.Errorf("span %s on lane %d, want the request lane %d", sp.Name, sp.TID, root.TID)
			}
		case strings.HasPrefix(sp.Name, "build:") || strings.HasPrefix(sp.Name, "ckpt:") || strings.HasPrefix(sp.Name, "exp:"):
			if sp.TID != buildLane {
				t.Errorf("span %s on lane %d, want the build lane %d", sp.Name, sp.TID, buildLane)
			}
		}
	}

	// A warm repeat is a new, smaller trace: no exp/build spans.
	resp2, err := client.Get(ts.URL + "/v1/artifacts/fig2")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	warmID := resp2.Header.Get("X-Trace-Id")
	if warmID == traceID {
		t.Fatal("warm request reused the cold request's trace ID")
	}
	for _, sp := range fetchTraceSpans(t, client, ts.URL, warmID) {
		if strings.HasPrefix(sp.Name, "exp:") || strings.HasPrefix(sp.Name, "build:") {
			t.Errorf("warm trace contains build-side span %s", sp.Name)
		}
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestIncomingTraceparentJoined: a request with a valid traceparent
// header must join that trace rather than rooting a new one, and the
// malformed variants must not.
func TestIncomingTraceparentJoined(t *testing.T) {
	rec := obs.NewRecorder()
	rec.SeedIDs(7)
	s := New(Config{Base: tinyConfig(), Rec: rec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const upstream = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", ts.URL+"/v1/experiments", nil)
	req.Header.Set("Traceparent", "00-"+upstream+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != upstream {
		t.Fatalf("X-Trace-Id = %q, want the upstream trace %q", got, upstream)
	}
	spans := rec.TraceSpans(upstream)
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the upstream trace ID")
	}
	if root := spans[len(spans)-1]; root.ParentID != "00f067aa0ba902b7" {
		t.Errorf("handler span parent = %q, want the upstream span ID", root.ParentID)
	}

	for _, bad := range []string{
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace
		"ff-" + upstream + "-00f067aa0ba902b7-01",                 // version ff
		"00-" + upstream + "-00f067aa0ba902b7",                    // missing flags
		"garbage",
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/experiments", nil)
		req.Header.Set("Traceparent", bad)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Trace-Id"); got == upstream || len(got) != 32 {
			t.Errorf("traceparent %q: X-Trace-Id = %q, want a fresh 32-char trace", bad, got)
		}
	}
}

// TestCoalescedTraceLinksLeader: when a request joins another request's
// in-flight build, its own trace must record a link to the leader's
// span — two distinct traces, cross-referenced.
func TestCoalescedTraceLinksLeader(t *testing.T) {
	st := &stubState{entered: make(chan struct{}, 1), release: make(chan struct{})}
	rec := obs.NewRecorder()
	rec.SeedIDs(11)
	s := New(Config{
		Base:        tinyConfig(),
		Experiments: []core.Experiment{stubExperiment("stub", st)},
		Rec:         rec,
		MaxInflight: 8,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	headers := make([]http.Header, 2)
	var wg sync.WaitGroup
	launch := func(i int) {
		defer wg.Done()
		resp, err := client.Get(ts.URL + "/v1/artifacts/stub")
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		resp.Body.Close()
		headers[i] = resp.Header
	}
	wg.Add(1)
	go launch(0)
	<-st.entered // leader is inside the build
	wg.Add(1)
	go launch(1)
	e := s.entryFor(context.Background(), tinyConfig())
	waitFor(t, "one coalesced waiter", func() bool { return e.sf.waiting("stub") == 1 })
	close(st.release)
	wg.Wait()

	t0, t1 := headers[0].Get("X-Trace-Id"), headers[1].Get("X-Trace-Id")
	if t0 == "" || t1 == "" || t0 == t1 {
		t.Fatalf("trace IDs %q vs %q: want two distinct traces", t0, t1)
	}
	// Exactly one of the two traces carries a link, and it points into
	// the other trace (the leader's). Which request led is scheduling-
	// dependent only in ID order, not in structure.
	var links []obs.SpanRecord
	leaderTrace := ""
	for _, id := range []string{t0, t1} {
		for _, sp := range rec.TraceSpans(id) {
			if sp.LinkSpanID != "" {
				links = append(links, sp)
			}
			if strings.HasPrefix(sp.Name, "exp:") {
				leaderTrace = id
			}
		}
	}
	if len(links) != 1 {
		t.Fatalf("found %d linked spans, want exactly 1", len(links))
	}
	link := links[0]
	if link.LinkTraceID != leaderTrace {
		t.Errorf("link points at trace %s, want the leader's %s", link.LinkTraceID, leaderTrace)
	}
	if link.TraceID == leaderTrace {
		t.Errorf("the linking span is in the leader's own trace %s", leaderTrace)
	}
	// And the link target is the leader's coalesce span specifically.
	found := false
	for _, sp := range rec.TraceSpans(leaderTrace) {
		if sp.SpanID == link.LinkSpanID && strings.HasPrefix(sp.Name, "coalesce:") {
			found = true
		}
	}
	if !found {
		t.Errorf("link target %s is not the leader's coalesce span", link.LinkSpanID)
	}
	if got := st.runs.Load(); got != 1 {
		t.Fatalf("stub ran %d times, want 1", got)
	}
}

// TestServedBytesIdenticalTraced extends the determinism contract to
// instrumented requests: a traced cold build (external traceparent,
// full span chain, access log, latency sketches) must serve bytes
// identical to an untraced server's.
func TestServedBytesIdenticalTraced(t *testing.T) {
	cfg := tinyConfig()

	plain := New(Config{Base: cfg})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	_, want := get(t, tsPlain.Client(), tsPlain.URL+"/v1/artifacts/fig2")

	var accessBuf syncBuffer
	rec := obs.NewRecorder()
	rec.SeedIDs(3)
	traced := New(Config{Base: cfg, Rec: rec, AccessLog: &accessBuf})
	tsTraced := httptest.NewServer(traced.Handler())
	defer tsTraced.Close()
	req, _ := http.NewRequest("GET", tsTraced.URL+"/v1/artifacts/fig2", nil)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := tsTraced.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if !bytes.Equal(got, want) {
		t.Error("traced cold build served different bytes than an untraced server")
	}
	if accessBuf.Len() == 0 {
		t.Error("traced server wrote no access log record")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the access logger writes
// from request goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAccessLogSampling pins the head-based rule: with -access-log-
// sample n, exactly the 1st, n+1st, 2n+1st... requests are logged,
// deterministically.
func TestAccessLogSampling(t *testing.T) {
	var buf syncBuffer
	s := New(Config{Base: tinyConfig(), AccessLog: &buf, AccessLogSample: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 9; i++ {
		code, _ := get(t, ts.Client(), ts.URL+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz %d: status %d", i, code)
		}
	}
	var seqs []uint64
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access line %q: %v", sc.Text(), err)
		}
		seqs = append(seqs, rec.Seq)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 4 || seqs[2] != 7 {
		t.Errorf("sampled seqs = %v, want [1 4 7]", seqs)
	}
}

// TestDebugTraceDuringDrain: the observability endpoints must keep
// answering while a drain is in progress — that is exactly when an
// operator needs them — while regular traffic 503s.
func TestDebugTraceDuringDrain(t *testing.T) {
	rec := obs.NewRecorder()
	s := New(Config{Base: tinyConfig(), Rec: rec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, _ := get(t, client, ts.URL+"/v1/experiments"); code != http.StatusOK {
		t.Fatalf("pre-drain request failed: %d", code)
	}
	s.BeginDrain()
	for path, want := range map[string]int{
		"/metrics":           http.StatusOK,
		"/debug/trace":       http.StatusOK,
		"/healthz":           http.StatusServiceUnavailable,
		"/v1/experiments":    http.StatusServiceUnavailable,
		"/v1/artifacts/fig2": http.StatusServiceUnavailable,
	} {
		if code, body := get(t, client, ts.URL+path); code != want {
			t.Errorf("during drain GET %s = %d, want %d (%s)", path, code, want, body)
		}
	}
}

// TestTraceEndpointErrors covers the /debug/trace contract edges.
func TestTraceEndpointErrors(t *testing.T) {
	rec := obs.NewRecorder()
	s := New(Config{Base: tinyConfig(), Rec: rec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for path, want := range map[string]int{
		"/debug/trace/deadbeefdeadbeefdeadbeefdeadbeef": http.StatusNotFound,
		"/debug/trace?since=notanumber":                 http.StatusBadRequest,
		"/debug/trace?format=yaml":                      http.StatusBadRequest,
		"/debug/trace?format=chrome":                    http.StatusOK,
	} {
		if code, body := get(t, client, ts.URL+path); code != want {
			t.Errorf("GET %s = %d, want %d (%s)", path, code, want, body)
		}
	}

	// Incremental export: ?since=Seq returns only newer spans.
	if code, _ := get(t, client, ts.URL+"/v1/experiments"); code != http.StatusOK {
		t.Fatal("experiments request failed")
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	last := spans[len(spans)-1].Seq
	code, body := get(t, client, ts.URL+"/debug/trace?since="+utoa(last))
	if code != http.StatusOK {
		t.Fatalf("since scrape: %d", code)
	}
	// Everything up to `last` is filtered; only spans recorded after it
	// (by the /debug/trace requests themselves) may appear.
	if strings.Contains(string(body), `"seq":`+utoa(last)+",") {
		t.Errorf("since=%d export still contains seq %d", last, last)
	}
}

func utoa(v uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}
