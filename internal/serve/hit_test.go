package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// variantReq is one artifact URL and the bytes and Content-Type the
// daemon must answer it with.
type variantReq struct {
	path, ctype string
	want        []byte
}

// cliVariants renders every servable variant of results with the
// renderers cmd/repro writes its files with, plus the paper report in
// both formats, as the URLs that serve them.
func cliVariants(t *testing.T, cfg core.Config, results []*core.Result) []variantReq {
	t.Helper()
	var out []variantReq
	for _, r := range results {
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var md bytes.Buffer
		if err := core.WriteResultMarkdown(&md, r); err != nil {
			t.Fatal(err)
		}
		out = append(out,
			variantReq{"/v1/artifacts/" + r.ID, "application/json", js},
			variantReq{"/v1/artifacts/" + r.ID + "?format=md", "text/markdown; charset=utf-8", md.Bytes()})
		for _, tbl := range r.Tables {
			var b bytes.Buffer
			if err := tbl.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			out = append(out, variantReq{"/v1/artifacts/" + r.ID + "/tables/" + tbl.ID, "text/csv; charset=utf-8", b.Bytes()})
		}
		for _, ser := range r.Series {
			var b bytes.Buffer
			if err := ser.WriteDAT(&b); err != nil {
				t.Fatal(err)
			}
			out = append(out, variantReq{"/v1/artifacts/" + r.ID + "/series/" + ser.ID, "text/plain; charset=utf-8", b.Bytes()})
		}
	}
	var rep bytes.Buffer
	if err := core.WriteMarkdownReport(&rep, cfg, results, nil); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return append(out,
		variantReq{"/v1/report", "text/markdown; charset=utf-8", rep.Bytes()},
		variantReq{"/v1/report?format=json", "application/json", js})
}

// checkVariant GETs v and requires a 200 carrying exactly v.want, with
// v.ctype and a Content-Length.
func checkVariant(t *testing.T, client *http.Client, base string, v variantReq) {
	t.Helper()
	resp, err := client.Get(base + v.path)
	if err != nil {
		t.Fatalf("GET %s: %v", v.path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: %v", v.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", v.path, resp.StatusCode, body)
	}
	if !bytes.Equal(body, v.want) {
		t.Errorf("GET %s: %d body bytes differ from the %d bytes the CLI renders", v.path, len(body), len(v.want))
	}
	if ct := resp.Header.Get("Content-Type"); ct != v.ctype {
		t.Errorf("GET %s: Content-Type %q, want %q", v.path, ct, v.ctype)
	}
	if resp.ContentLength != int64(len(v.want)) {
		t.Errorf("GET %s: Content-Length %d, want %d", v.path, resp.ContentLength, len(v.want))
	}
}

// realExperiments returns the named registry experiments.
func realExperiments(t *testing.T, ids ...string) []core.Experiment {
	t.Helper()
	var exps []core.Experiment
	for _, id := range ids {
		e, err := core.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return exps
}

// gatedStub is an experiment with a table and a series whose build
// blocks on release when it runs for coldSeed; any other scenario
// builds at once.
func gatedStub(id string, coldSeed uint64, entered, release chan struct{}) core.Experiment {
	return core.Experiment{ID: id, Title: "stub " + id, Run: func(c *core.Context) (*core.Result, error) {
		if c.Cfg.Seed == coldSeed {
			entered <- struct{}{}
			<-release
		}
		tbl := &report.Table{ID: id + "-t", Title: "t", Columns: []string{"a", "b"}}
		tbl.AddRow("1", fmt.Sprint(c.Cfg.Seed))
		ser := report.NewSeries(id+"-s", "s", "x")
		ser.X = []float64{1, 2}
		ser.Add("y", []float64{3, float64(c.Cfg.Seed)})
		return &core.Result{ID: id, Title: "stub " + id, Tables: []*report.Table{tbl},
			Series: []*report.Series{ser}, Metrics: map[string]float64{"n": 1}}, nil
	}}
}

// TestHitsBypassSaturatedGate enforces the hit-before-gate contract.
//
// GIVEN a daemon with one admission slot and no queue, a built base
// scenario, and a cold build holding the only slot,
// WHEN a client fetches every variant of the built artifacts and the
// report in both formats,
// THEN each answer is a 200 with the CLI bytes, its route's
// Content-Type and a Content-Length, serve.gate.rejected stays 0, and
// the access log shows gate_wait_us 0 and ctx_cached on every hit.
func TestHitsBypassSaturatedGate(t *testing.T) {
	cfg := tinyConfig()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	exps := append(realExperiments(t, "fig2", "table1"), gatedStub("gated", 99, entered, release))
	cli, err := core.RunExperiments(context.Background(), core.NewContext(cfg), exps, core.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	variants := cliVariants(t, cfg, cli)

	rec := obs.NewRecorder()
	var logBuf bytes.Buffer
	s := New(Config{Base: cfg, Experiments: exps, Rec: rec, MaxInflight: 1, MaxQueue: -1, AccessLog: &logBuf})
	if _, err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	// Runs before ts.Close, so a failing check cannot leave the cold
	// build, and with it the server's shutdown, blocked forever.
	releaseCold := sync.OnceFunc(func() { close(release) })
	defer releaseCold()

	coldDone := make(chan int, 1)
	go func() {
		code, _ := get(t, client, ts.URL+"/v1/artifacts/gated?seed=99")
		coldDone <- code
	}()
	<-entered // the cold build now holds the only slot

	reg := rec.Registry()
	hits0 := reg.Counter("serve.artifact.hit").Value()
	for _, v := range variants {
		checkVariant(t, client, ts.URL, v)
	}
	if got := reg.Counter("serve.gate.rejected").Value(); got != 0 {
		t.Errorf("serve.gate.rejected = %d while serving hits, want 0", got)
	}
	if got := reg.Counter("serve.artifact.hit").Value() - hits0; got == 0 {
		t.Error("serve.artifact.hit did not move on hits")
	}
	// The gate really is full: a miss is refused.
	if code, body := get(t, client, ts.URL+"/v1/artifacts/fig2?seed=5"); code != http.StatusTooManyRequests {
		t.Errorf("cold request on a full gate: status %d (%s), want 429", code, body)
	}
	releaseCold()
	if code := <-coldDone; code != http.StatusOK {
		t.Fatalf("cold build: status %d", code)
	}

	hits := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec accessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if rec.Status != http.StatusOK || strings.Contains(rec.Query, "seed=") {
			continue // the cold build and the refused miss
		}
		hits++
		if rec.GateUS != 0 || !rec.CtxCached {
			t.Errorf("hit %s?%s logged gate_wait_us=%d ctx_cached=%v, want 0 and true", rec.Path, rec.Query, rec.GateUS, rec.CtxCached)
		}
	}
	if hits != len(variants) {
		t.Errorf("access log holds %d hits, want %d", hits, len(variants))
	}
}

// TestConcurrentHitsRenderOnce enforces render-once.
//
// GIVEN a cold artifact with a table and a series,
// WHEN 8 concurrent requests for each of its four variants coalesce on
// its build, and then every variant is fetched again,
// THEN every request gets identical bytes per variant, and
// serve.artifact.render counts exactly one render per variant.
func TestConcurrentHitsRenderOnce(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	cfg := tinyConfig()
	rec := obs.NewRecorder()
	s := New(Config{
		Base:        cfg,
		Experiments: []core.Experiment{gatedStub("stub", cfg.Seed, entered, release)},
		Rec:         rec,
		MaxInflight: 64,
		MaxQueue:    64,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	releaseBuild := sync.OnceFunc(func() { close(release) })
	defer releaseBuild()

	paths := []string{
		"/v1/artifacts/stub",
		"/v1/artifacts/stub?format=md",
		"/v1/artifacts/stub/tables/stub-t",
		"/v1/artifacts/stub/series/stub-s",
	}
	const perVariant = 8
	n := perVariant * len(paths)
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = get(t, client, ts.URL+paths[i%len(paths)])
		}(i)
	}
	<-entered
	e := s.entryFor(context.Background(), cfg)
	waitFor(t, "every request joined the build", func() bool { return e.sf.waiting("stub") == n-1 })
	releaseBuild()
	wg.Wait()

	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d (%s): status %d: %s", i, paths[i%len(paths)], codes[i], bodies[i])
		}
		if first := bodies[i%len(paths)]; !bytes.Equal(bodies[i], first) {
			t.Fatalf("request %d (%s): body differs from the first request for it", i, paths[i%len(paths)])
		}
	}
	reg := rec.Registry()
	if got := reg.Counter("serve.artifact.render").Value(); got != int64(len(paths)) {
		t.Errorf("serve.artifact.render = %d after the cold burst, want %d (one per variant)", got, len(paths))
	}
	for i, p := range paths {
		if code, body := get(t, client, ts.URL+p); code != http.StatusOK || !bytes.Equal(body, bodies[i]) {
			t.Errorf("warm %s: status %d, body equal to the cold one: %v", p, code, bytes.Equal(body, bodies[i]))
		}
	}
	if got := reg.Counter("serve.artifact.render").Value(); got != int64(len(paths)) {
		t.Errorf("serve.artifact.render = %d after warm hits, want still %d", got, len(paths))
	}
}

// TestReportAssembledByteIdentical enforces that the assembled report
// is the CLI report.
//
// GIVEN the default registry (paper set plus extensions), warm-started
// from the checkpoints of a CLI run,
// WHEN /v1/report is fetched as markdown and JSON, with and without
// ?extensions=1, first and then again,
// THEN every body equals core.WriteMarkdownReport, or json.Marshal of
// the result slice, over the same experiments.
func TestReportAssembledByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	paper, ext := core.Experiments(), core.Extensions()
	all := append(append([]core.Experiment(nil), paper...), ext...)
	// The CLI run leaves checkpoints the daemon warm-starts from, so the
	// slow part, building every experiment, happens once.
	dir := t.TempDir()
	results, err := core.RunExperiments(context.Background(), core.NewContext(cfg), all, core.RunOptions{Workers: 2, Ckpt: coordinator(t, dir, "cli", obs.NewRecorder())})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Base: cfg, Replica: coordinator(t, dir, "", obs.NewRecorder())})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		query   string
		results []*core.Result
	}{
		{"", results[:len(paper)]},
		{"?extensions=1", results},
	} {
		var md bytes.Buffer
		if err := core.WriteMarkdownReport(&md, cfg, tc.results, nil); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(tc.results)
		if err != nil {
			t.Fatal(err)
		}
		sep := "?"
		if tc.query != "" {
			sep = "&"
		}
		for round := 0; round < 2; round++ { // loaded from checkpoints, then cached
			checkVariant(t, ts.Client(), ts.URL, variantReq{"/v1/report" + tc.query, "text/markdown; charset=utf-8", md.Bytes()})
			checkVariant(t, ts.Client(), ts.URL, variantReq{"/v1/report" + tc.query + sep + "format=json", "application/json", js})
		}
	}
}

// TestEvictionRebuildByteIdentical enforces that eviction loses no
// bytes.
//
// GIVEN a one-context LRU holding a built scenario,
// WHEN another scenario evicts it and it is then requested again,
// THEN the rebuilt scenario serves every variant byte-identical to the
// CLI.
func TestEvictionRebuildByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	exps := realExperiments(t, "fig2", "table1")
	cli, err := core.RunExperiments(context.Background(), core.NewContext(cfg), exps, core.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	variants := cliVariants(t, cfg, cli)

	rec := obs.NewRecorder()
	s := New(Config{Base: cfg, Experiments: exps, Rec: rec, MaxContexts: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, v := range variants {
		checkVariant(t, client, ts.URL, v)
	}
	if code, body := get(t, client, ts.URL+"/v1/artifacts/table1?seed=8"); code != http.StatusOK {
		t.Fatalf("evicting scenario: status %d: %s", code, body)
	}
	if got := rec.Registry().Counter("serve.ctx.evicted").Value(); got != 1 {
		t.Fatalf("serve.ctx.evicted = %d, want 1", got)
	}
	for _, v := range variants {
		checkVariant(t, client, ts.URL, v)
	}
}
