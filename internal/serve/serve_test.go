package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// tinyConfig is a seconds-fast scenario: the byte-identity tests only
// use workload-side experiments, so the simulation fields are minimal.
// The workload horizon stays at the quick scale's full day — shorter
// horizons starve some distributions into NaN metrics, which neither
// JSON nor the checkpoint store accepts.
func tinyConfig() core.Config {
	return core.Config{
		Seed:                   7,
		Machines:               8,
		SimHorizon:             86400,
		WorkloadHorizon:        86400,
		WorkloadMaxTasksPerJob: 40,
		SampleMachines:         4,
	}
}

// stubState wires a controllable experiment into a server: runs counts
// Run invocations, entered signals each Run entry, release (when
// non-nil) blocks Run until closed.
type stubState struct {
	runs    atomic.Int64
	entered chan struct{}
	release chan struct{}
}

// stubExperiment touches the google_tasks cell (so coalescing is
// observable via core.cell.google_tasks.miss) and then defers to the
// stub's synchronization knobs.
func stubExperiment(id string, st *stubState) core.Experiment {
	return core.Experiment{ID: id, Title: "stub " + id, Run: func(c *core.Context) (*core.Result, error) {
		st.runs.Add(1)
		if _, err := c.GoogleTasks(); err != nil {
			return nil, err
		}
		if st.entered != nil {
			st.entered <- struct{}{}
		}
		if st.release != nil {
			<-st.release
		}
		return &core.Result{ID: id, Title: "stub " + id, Metrics: map[string]float64{"n": 1}}, nil
	}}
}

func get(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// waitFor polls cond for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServedBytesIdentical is the daemon's determinism contract: for
// the same config, every body served over HTTP is byte-identical to
// the artifact cmd/repro emits — JSON to the marshalled in-memory
// result, markdown to the shared core renderer, CSV/.dat to the very
// files report.SaveCSV/SaveDAT write.
func TestServedBytesIdentical(t *testing.T) {
	cfg := tinyConfig()
	var exps []core.Experiment
	for _, id := range []string{"fig2", "fig3", "table1"} {
		e, err := core.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}

	// The CLI side: the same runner cmd/repro invokes, serially.
	cliCtx := core.NewContext(cfg)
	results, err := core.RunExperiments(context.Background(), cliCtx, exps, core.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Base: cfg, Experiments: exps})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	outDir := t.TempDir()
	for i, e := range exps {
		want, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		code, body := get(t, client, ts.URL+"/v1/artifacts/"+e.ID)
		if code != http.StatusOK {
			t.Fatalf("artifact %s: status %d: %s", e.ID, code, body)
		}
		if string(body) != string(want) {
			t.Errorf("artifact %s: served JSON differs from CLI result marshal", e.ID)
		}

		var md strings.Builder
		if err := core.WriteResultMarkdown(&md, results[i]); err != nil {
			t.Fatal(err)
		}
		code, body = get(t, client, ts.URL+"/v1/artifacts/"+e.ID+"?format=md")
		if code != http.StatusOK || string(body) != md.String() {
			t.Errorf("artifact %s: served markdown differs from CLI renderer (status %d)", e.ID, code)
		}

		for _, tbl := range results[i].Tables {
			path, err := tbl.SaveCSV(outDir)
			if err != nil {
				t.Fatal(err)
			}
			fileBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			code, body := get(t, client, fmt.Sprintf("%s/v1/artifacts/%s/tables/%s", ts.URL, e.ID, tbl.ID))
			if code != http.StatusOK || string(body) != string(fileBytes) {
				t.Errorf("table %s/%s: served CSV differs from %s (status %d)", e.ID, tbl.ID, filepath.Base(path), code)
			}
		}
		for _, ser := range results[i].Series {
			path, err := ser.SaveDAT(outDir)
			if err != nil {
				t.Fatal(err)
			}
			fileBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			code, body := get(t, client, fmt.Sprintf("%s/v1/artifacts/%s/series/%s", ts.URL, e.ID, ser.ID))
			if code != http.StatusOK || string(body) != string(fileBytes) {
				t.Errorf("series %s/%s: served .dat differs from %s (status %d)", e.ID, ser.ID, filepath.Base(path), code)
			}
		}
	}

	var want strings.Builder
	if err := core.WriteMarkdownReport(&want, cfg, results, nil); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, client, ts.URL+"/v1/report")
	if code != http.StatusOK || string(body) != want.String() {
		t.Errorf("report: served markdown differs from CLI -markdown renderer (status %d)", code)
	}
}

// TestCoalescingOneBuild enforces one build per cold artifact.
//
// GIVEN a cold artifact whose build blocks,
// WHEN 100 concurrent requests for it are all in flight and the build
// is released,
// THEN all 100 get 200 with identical bodies from exactly one Run, one
// core.cell.google_tasks.miss and 99 serve.coalesce.shared.
func TestCoalescingOneBuild(t *testing.T) {
	st := &stubState{release: make(chan struct{})}
	rec := obs.NewRecorder()
	cfg := tinyConfig()
	s := New(Config{
		Base:        cfg,
		Experiments: []core.Experiment{stubExperiment("stub", st)},
		Rec:         rec,
		MaxInflight: 128,
		MaxQueue:    256,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const n = 100
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = get(t, client, ts.URL+"/v1/artifacts/stub")
		}(i)
	}

	// Every request must be in the flight before the build may finish:
	// one leader inside Run, 99 parked on the coalescer.
	e := s.entryFor(context.Background(), cfg)
	waitFor(t, "99 coalesced waiters", func() bool { return e.sf.waiting("stub") == n-1 })
	close(st.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d: body differs from request 0", i)
		}
	}
	if got := st.runs.Load(); got != 1 {
		t.Errorf("stub ran %d times, want exactly 1", got)
	}
	reg := rec.Registry()
	if got := reg.Counter("core.cell.google_tasks.miss").Value(); got != 1 {
		t.Errorf("core.cell.google_tasks.miss = %d, want exactly 1", got)
	}
	if got := reg.Counter("serve.coalesce.shared").Value(); got != n-1 {
		t.Errorf("serve.coalesce.shared = %d, want %d", got, n-1)
	}
}

// TestAdmissionGateRejects enforces load shedding at admission.
//
// GIVEN a daemon with one slot, held by a cold build, and a 2-deep
// queue, full,
// WHEN one more cold request arrives,
// THEN it gets 429 and serve.gate.rejected is 1, while the three
// admitted requests all complete with 200.
func TestAdmissionGateRejects(t *testing.T) {
	st := &stubState{entered: make(chan struct{}, 8), release: make(chan struct{})}
	rec := obs.NewRecorder()
	s := New(Config{
		Base:        tinyConfig(),
		Experiments: []core.Experiment{stubExperiment("stub", st)},
		Rec:         rec,
		MaxInflight: 1,
		MaxQueue:    2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	url := ts.URL + "/v1/artifacts/stub"

	codes := make([]int, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); codes[0], _ = get(t, client, url) }()
	<-st.entered // the slot-holder is now inside Run

	reg := rec.Registry()
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); codes[i], _ = get(t, client, url) }(i)
	}
	waitFor(t, "2 queued requests", func() bool { return reg.Gauge("serve.gate.queued").Value() == 2 })

	code, body := get(t, client, url)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: status %d (%s), want 429", code, body)
	}
	if got := reg.Counter("serve.gate.rejected").Value(); got != 1 {
		t.Errorf("serve.gate.rejected = %d, want 1", got)
	}

	close(st.release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, c)
		}
	}
}

// TestDrainLetsInflightFinish enforces graceful drain.
//
// GIVEN one request in the middle of its build,
// WHEN the server begins draining,
// THEN new artifact and /healthz requests get 503 at once, and the
// in-flight request still completes with 200.
func TestDrainLetsInflightFinish(t *testing.T) {
	st := &stubState{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s := New(Config{
		Base:        tinyConfig(),
		Experiments: []core.Experiment{stubExperiment("stub", st)},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	inflightCode := make(chan int, 1)
	go func() {
		code, _ := get(t, client, ts.URL+"/v1/artifacts/stub")
		inflightCode <- code
	}()
	<-st.entered

	s.BeginDrain()
	if code, body := get(t, client, ts.URL+"/v1/artifacts/stub"); code != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d (%s), want 503", code, body)
	} else if !strings.Contains(string(body), "draining") {
		t.Fatalf("new request during drain: body %s, want a draining notice", body)
	}
	if code, _ := get(t, client, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", code)
	}

	close(st.release)
	if code := <-inflightCode; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestContextLRUEviction bounds the per-scenario cache at 2 and walks
// three seeds: the oldest is evicted and rebuilds on return, the
// surviving one is served from memory.
func TestContextLRUEviction(t *testing.T) {
	st := &stubState{}
	rec := obs.NewRecorder()
	s := New(Config{
		Base:        tinyConfig(),
		Experiments: []core.Experiment{stubExperiment("stub", st)},
		Rec:         rec,
		MaxContexts: 2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for seed := 1; seed <= 3; seed++ {
		if code, body := get(t, client, fmt.Sprintf("%s/v1/artifacts/stub?seed=%d", ts.URL, seed)); code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
	}
	reg := rec.Registry()
	if got := reg.Counter("serve.ctx.evicted").Value(); got != 1 {
		t.Errorf("serve.ctx.evicted = %d, want 1", got)
	}
	if got := s.lru.len(); got != 2 {
		t.Errorf("live contexts = %d, want 2", got)
	}
	if got := st.runs.Load(); got != 3 {
		t.Fatalf("stub ran %d times over 3 scenarios, want 3", got)
	}

	// seed=3 survived: memoized, no rebuild. seed=1 was evicted: rebuilds.
	get(t, client, ts.URL+"/v1/artifacts/stub?seed=3")
	if got := st.runs.Load(); got != 3 {
		t.Errorf("cached scenario rebuilt: runs = %d, want 3", got)
	}
	get(t, client, ts.URL+"/v1/artifacts/stub?seed=1")
	if got := st.runs.Load(); got != 4 {
		t.Errorf("evicted scenario: runs = %d, want 4", got)
	}
}

// TestWarmStartFromCheckpoints serves an artifact once with a
// checkpoint store attached, then boots a second daemon on the same
// directory: it must answer byte-identically from disk with zero cell
// builds and zero experiment runs.
func TestWarmStartFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	table1, err := core.Find("table1")
	if err != nil {
		t.Fatal(err)
	}

	s1 := New(Config{Base: cfg, Experiments: []core.Experiment{table1}, Replica: coordinator(t, dir, "", obs.NewRecorder())})
	ts1 := httptest.NewServer(s1.Handler())
	code, body1 := get(t, ts1.Client(), ts1.URL+"/v1/artifacts/table1")
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("cold serve: status %d: %s", code, body1)
	}

	rec2 := obs.NewRecorder()
	s2 := New(Config{Base: cfg, Experiments: []core.Experiment{table1}, Replica: coordinator(t, dir, "", rec2), Rec: rec2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, body2 := get(t, ts2.Client(), ts2.URL+"/v1/artifacts/table1")
	if code != http.StatusOK {
		t.Fatalf("warm serve: status %d: %s", code, body2)
	}
	if string(body1) != string(body2) {
		t.Error("warm-started bytes differ from cold-built bytes")
	}
	reg2 := rec2.Registry()
	if got := reg2.Counter("ckpt.hit").Value(); got != 1 {
		t.Errorf("ckpt.hit = %d, want 1", got)
	}
	for _, cell := range []string{"google_tasks", "google_jobs"} {
		if got := reg2.Counter("core.cell." + cell + ".miss").Value(); got != 0 {
			t.Errorf("warm start rebuilt cell %s (%d misses), want 0", cell, got)
		}
	}
}

// TestScenarioParamsAndErrors covers the request-validation surface:
// bad scenario parameters, unknown artifacts/tables/formats, plus the
// healthz/metrics/experiments happy paths.
func TestScenarioParamsAndErrors(t *testing.T) {
	st := &stubState{}
	s := New(Config{Base: tinyConfig(), Experiments: []core.Experiment{stubExperiment("stub", st)}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/artifacts/stub?machines=0", http.StatusBadRequest},
		{"/v1/artifacts/stub?machines=notanumber", http.StatusBadRequest},
		{"/v1/artifacts/stub?days=9999", http.StatusBadRequest},
		{"/v1/artifacts/stub?workload_days=-3", http.StatusBadRequest},
		{"/v1/artifacts/stub?seed=abc", http.StatusBadRequest},
		{"/v1/artifacts/stub?format=xml", http.StatusBadRequest},
		{"/v1/artifacts/nope", http.StatusNotFound},
		{"/v1/artifacts/stub/tables/nope", http.StatusNotFound},
		{"/v1/artifacts/stub/series/nope", http.StatusNotFound},
		{"/v1/report?format=csv", http.StatusBadRequest},
		{"/v1/artifacts/stub?seed=11&machines=12&days=2&workload_days=1", http.StatusOK},
	} {
		if code, body := get(t, client, ts.URL+tc.path); code != tc.want {
			t.Errorf("GET %s: status %d (%s), want %d", tc.path, code, body, tc.want)
		}
	}

	code, body := get(t, client, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var hs healthStatus
	if err := json.Unmarshal(body, &hs); err != nil || hs.Status != "ok" || hs.Experiments != 1 {
		t.Errorf("healthz payload %s (err %v), want status ok with 1 experiment", body, err)
	}

	code, body = get(t, client, ts.URL+"/v1/experiments")
	var infos []experimentInfo
	if code != http.StatusOK || json.Unmarshal(body, &infos) != nil || len(infos) != 1 || infos[0].ID != "stub" {
		t.Errorf("experiments: status %d payload %s, want the stub listing", code, body)
	}

	// /metrics is Prometheus text, the only format.
	code, body = get(t, client, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "serve_req_total") {
		t.Errorf("metrics: status %d, body missing serve_req_total", code)
	}
	if _, err := obs.ParsePrometheus(bytes.NewReader(body)); err != nil {
		t.Errorf("metrics: default exposition does not parse: %v", err)
	}
	for _, f := range []string{"jsonl", "xml"} {
		if code, _ := get(t, client, ts.URL+"/metrics?format="+f); code != http.StatusBadRequest {
			t.Errorf("metrics?format=%s: status %d, want 400", f, code)
		}
	}
}
