package serve

import (
	"bytes"
	"encoding/json"
	"io"
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

// replicaServer boots one multi-replica daemon over the shared dir,
// returning the test server and the coordinator behind it.
func replicaServer(t *testing.T, dir, id string, exps []core.Experiment) (*httptest.Server, *ckpt.Store, *replica.Coordinator) {
	t.Helper()
	rec := obs.NewRecorder()
	store, err := ckpt.NewStore(dir, rec.Registry())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	coord := replica.New(replica.Config{
		ID:    id,
		Store: store,
		TTL:   200 * time.Millisecond,
		Poll:  10 * time.Millisecond,
		Rec:   rec,
	})
	srv := New(Config{Base: tinyConfig(), Experiments: exps, Store: store, Replica: coord, Rec: rec})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, store, coord
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
