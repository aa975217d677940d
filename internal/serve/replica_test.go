package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/replica"
)

// coordinator opens a checkpoint store over dir and the coordinator
// named id (empty: the default per-process name) that checkpoints
// through it, counting into rec, with fast test timings.
func coordinator(t *testing.T, dir, id string, rec *obs.Recorder) *replica.Coordinator {
	t.Helper()
	store, err := ckpt.NewStore(dir, rec.Registry())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return replica.New(replica.Config{
		ID:    id,
		Store: store,
		TTL:   200 * time.Millisecond,
		Poll:  10 * time.Millisecond,
		Rec:   rec,
	})
}

// replicaServer boots one checkpointed daemon over the shared dir,
// returning the test server, its store and the coordinator behind it.
func replicaServer(t *testing.T, dir, id string, exps []core.Experiment) (*httptest.Server, *ckpt.Store, *replica.Coordinator) {
	t.Helper()
	rec := obs.NewRecorder()
	coord := coordinator(t, dir, id, rec)
	srv := New(Config{Base: tinyConfig(), Experiments: exps, Replica: coord, Rec: rec})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, coord.Store(), coord
}

// TestTwoReplicasServeIdenticalBytes: one replica builds, the sibling
// over the same checkpoint dir serves from the store — same bytes, one
// build between them.
func TestTwoReplicasServeIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	st := &stubState{}
	exps := []core.Experiment{stubExperiment("stub1", st)}
	tsA, _, _ := replicaServer(t, dir, "r0", exps)
	tsB, _, _ := replicaServer(t, dir, "r1", exps)
	client := &http.Client{}

	codeA, bodyA := get(t, client, tsA.URL+"/v1/artifacts/stub1")
	codeB, bodyB := get(t, client, tsB.URL+"/v1/artifacts/stub1")
	if codeA != 200 || codeB != 200 {
		t.Fatalf("status A=%d B=%d", codeA, codeB)
	}
	if string(bodyA) != string(bodyB) {
		t.Fatalf("replica bodies differ:\nA: %s\nB: %s", bodyA, bodyB)
	}
	if n := st.runs.Load(); n != 1 {
		t.Fatalf("experiment ran %d times across 2 replicas, want 1", n)
	}
}

// TestHealthzDegradedStillOK: with the checkpoint store unwritable the
// daemon keeps serving — a repeat request answers from the artifact
// cache with the same bytes and no second run — and /healthz stays 200
// but reports the degradation: flipping to non-200 would tell the load
// balancer to drop the one replica that still has the bytes.
func TestHealthzDegradedStillOK(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st := &stubState{}
	ts, store, coord := replicaServer(t, dir, "r0", []core.Experiment{stubExperiment("stub1", st)})
	client := &http.Client{}

	code, body := get(t, client, ts.URL+"/healthz")
	if code != 200 || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthy: code %d body %s", code, body)
	}
	if !strings.Contains(string(body), `"replica":"r0"`) {
		t.Fatalf("healthz does not name the replica: %s", body)
	}

	// Force the degradation the way the coordinator records it.
	if len(coord.Degraded()) != 0 {
		t.Fatalf("pre-degraded: %v", coord.Degraded())
	}
	store.SetFaults(fault.NewPlan(fault.Rule{Site: replica.SiteCkptWrite, Kind: fault.Error}))
	code, first := get(t, client, ts.URL+"/v1/artifacts/stub1")
	if code != 200 {
		t.Fatalf("degraded build: status %d", code)
	}
	code, again := get(t, client, ts.URL+"/v1/artifacts/stub1")
	if code != 200 || string(again) != string(first) {
		t.Fatalf("repeat under ckpt.write fault: status %d, body %q, want 200 and %q", code, again, first)
	}
	if n := st.runs.Load(); n != 1 {
		t.Fatalf("experiment ran %d times, want 1", n)
	}
	code, body = get(t, client, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("degraded /healthz: status %d, want 200", code)
	}
	if !strings.Contains(string(body), `"status":"degraded"`) || !strings.Contains(string(body), "store:") {
		t.Fatalf("degraded /healthz body: %s", body)
	}
}

// TestLeaseLostDuringCoreBuildKeepsScenarioUsable enforces that a lost
// lease cancels only the build that held it, never the scenario.
//
// GIVEN a replica building an artifact whose core build reads the
// scenario's google_tasks cell,
// WHEN another replica supersedes the lease mid-build, so the build's
// cell read is cancelled with ErrLeaseLost, and that replica then
// releases its generation without a result,
// THEN the first replica reclaims the key and rebuilds it — the lost
// cause was not memoized in the cell — answering 200, and a second
// artifact in the same scenario builds from the same cell.
func TestLeaseLostDuringCoreBuildKeepsScenarioUsable(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	entered := make(chan struct{})
	lost := core.Experiment{ID: "lost1", Title: "lost1", Run: func(c *core.Context) (*core.Result, error) {
		if runs.Add(1) == 1 {
			close(entered)
			<-c.Ctx().Done() // still building when superseded
		}
		if _, err := c.GoogleTasks(); err != nil {
			return nil, err
		}
		return &core.Result{ID: "lost1", Title: "lost1", Metrics: map[string]float64{"n": 1}}, nil
	}}
	after := stubExperiment("after1", &stubState{})
	ts, _, _ := replicaServer(t, dir, "r0", []core.Experiment{lost, after})
	client := &http.Client{Timeout: 10 * time.Second}

	type reply struct {
		code int
		body []byte
	}
	first := make(chan reply, 1)
	go func() {
		resp, err := client.Get(ts.URL + "/v1/artifacts/lost1")
		if err != nil {
			first <- reply{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		first <- reply{resp.StatusCode, b}
	}()
	<-entered

	// Supersede r0's generation 1 the way a taking-over replica does:
	// link generation 2. It is written already released, as by a
	// holder whose own build failed, so r0 may reclaim the key at once.
	held, _ := filepath.Glob(filepath.Join(dir, "*.lease.1"))
	if len(held) != 1 {
		t.Fatalf("lease files %v, want r0's one generation", held)
	}
	key := strings.TrimSuffix(filepath.Base(held[0]), ".lease.1")
	rec, _ := json.Marshal(map[string]any{"owner": "r9", "seq": 1, "expires_unix_ns": time.Now().Add(time.Hour).UnixNano(), "released": true})
	if err := os.WriteFile(filepath.Join(dir, key+".lease.2"), rec, 0o644); err != nil {
		t.Fatal(err)
	}

	r := <-first
	if r.code != 200 {
		t.Fatalf("lost1 after the lease loss: status %d body %s", r.code, r.body)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("lost1 ran %d times, want 2 (cancelled, then rebuilt)", n)
	}
	if code, body := get(t, client, ts.URL+"/v1/artifacts/after1"); code != 200 {
		t.Fatalf("second artifact in the scenario: status %d body %s", code, body)
	}
	_, body := get(t, client, ts.URL+"/metrics")
	dump, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if n, _ := dump.Value(obs.PromName("replica.lease.lost")); n != 1 {
		t.Fatalf("replica_lease_lost = %g, want 1", n)
	}
	if n, _ := dump.Value(obs.PromName("core.build.google_tasks.failure")); n != 0 {
		t.Fatalf("core_build_google_tasks_failure = %g: the lost lease counted as a build failure", n)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, key+".lease.*")); len(left) != 0 {
		t.Fatalf("lease files left after the stored rebuild: %v", left)
	}
}

// TestSharedDirDaemonsBuildOnce enforces one build per key between
// daemons that share a checkpoint directory without naming themselves.
//
// GIVEN two daemons over one checkpoint dir, each with the default
// per-process replica name,
// WHEN both get a request for the same cold artifact while its build
// runs,
// THEN the experiment runs once, the store is written once, and no
// duplicate write is counted.
func TestSharedDirDaemonsBuildOnce(t *testing.T) {
	dir := t.TempDir()
	st := &stubState{entered: make(chan struct{}, 1), release: make(chan struct{})}
	exps := []core.Experiment{stubExperiment("stub1", st)}
	recs := []*obs.Recorder{obs.NewRecorder(), obs.NewRecorder()}
	var urls []string
	for _, rec := range recs {
		srv := New(Config{Base: tinyConfig(), Experiments: exps, Replica: coordinator(t, dir, "", rec), Rec: rec})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	bodies := make(chan string, 2)
	fetch := func(url string) {
		code, body := get(t, client, url+"/v1/artifacts/stub1")
		if code != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", url, code, body)
		}
		bodies <- string(body)
	}
	go fetch(urls[0])
	<-st.entered // the first daemon is building
	go fetch(urls[1])
	waitFor(t, "the second daemon to wait on the lease", func() bool {
		return recs[1].Registry().Counter("replica.lease.wait").Value() > 0
	})
	close(st.release)
	if a, b := <-bodies, <-bodies; a != b {
		t.Fatalf("daemons served different bytes:\n%s\n%s", a, b)
	}
	if n := st.runs.Load(); n != 1 {
		t.Fatalf("experiment ran %d times across two daemons, want 1", n)
	}
	var stores, dups int64
	for _, rec := range recs {
		stores += rec.Registry().Counter("ckpt.store").Value()
		dups += rec.Registry().Counter("ckpt.dup").Value()
	}
	if stores != 1 || dups != 0 {
		t.Fatalf("ckpt.store = %d, ckpt.dup = %d; want 1 and 0", stores, dups)
	}
}

// TestFleetColdTraceHasCheckpointSpans: in a fleet, a traced cold build
// records the store read and the publish as children of the request's
// coalesce span, and a sibling's traced read of the published artifact
// records the store read alone.
func TestFleetColdTraceHasCheckpointSpans(t *testing.T) {
	dir := t.TempDir()
	exps := []core.Experiment{stubExperiment("stub1", &stubState{})}
	ts0, _, _ := replicaServer(t, dir, "r0", exps)
	ts1, _, _ := replicaServer(t, dir, "r1", exps)
	key := core.CheckpointKey(tinyConfig(), "stub1")[:12]

	for _, tc := range []struct {
		ts   *httptest.Server
		want []string
	}{
		{ts0, []string{"ckpt:load:" + key, "exp:stub1", "ckpt:save:" + key}},
		{ts1, []string{"ckpt:load:" + key}},
	} {
		resp, err := tc.ts.Client().Get(tc.ts.URL + "/v1/artifacts/stub1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		spans := fetchTraceSpans(t, tc.ts.Client(), tc.ts.URL, resp.Header.Get("X-Trace-Id"))
		byName := make(map[string]obs.SpanRecord, len(spans))
		for _, sp := range spans {
			byName[sp.Name] = sp
		}
		co, ok := byName["coalesce:stub1"]
		if !ok {
			t.Fatalf("no coalesce span; got %v", names(spans))
		}
		for _, name := range tc.want {
			if sp, ok := byName[name]; !ok || sp.ParentID != co.SpanID {
				t.Errorf("span %s missing or not under coalesce:stub1; got %v", name, names(spans))
			}
		}
		if _, ok := byName["ckpt:save:"+key]; ok && len(tc.want) == 1 {
			t.Errorf("a store hit published again; got %v", names(spans))
		}
	}
}

// TestFleetSkipsUnmarshalableResult: a result the store cannot hold (a
// NaN metric) is served from the build, counted as ckpt.skip, and
// leaves the replica healthy.
func TestFleetSkipsUnmarshalableResult(t *testing.T) {
	nan := core.Experiment{ID: "nan1", Title: "nan1", Run: func(*core.Context) (*core.Result, error) {
		return &core.Result{ID: "nan1", Title: "nan1", Metrics: map[string]float64{"m": math.NaN()}}, nil
	}}
	rec := obs.NewRecorder()
	srv := New(Config{Base: tinyConfig(), Experiments: []core.Experiment{nan}, Replica: coordinator(t, t.TempDir(), "r0", rec), Rec: rec})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, body := get(t, ts.Client(), ts.URL+"/v1/artifacts/nan1?format=md"); code != http.StatusOK {
		t.Fatalf("NaN artifact as markdown: status %d: %s", code, body)
	}
	reg := rec.Registry()
	if got := reg.Counter("ckpt.skip").Value(); got != 1 {
		t.Fatalf("ckpt.skip = %d, want 1", got)
	}
	if got := reg.Counter("ckpt.store").Value(); got != 0 {
		t.Fatalf("ckpt.store = %d, want 0", got)
	}
	if _, body := get(t, ts.Client(), ts.URL+"/healthz"); !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz after a skipped publish: %s", body)
	}
}
