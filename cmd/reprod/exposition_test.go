package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// requiredSeries are the metric families any healthy reprod daemon
// must export after serving at least one artifact request. `make
// check` runs this test as its exposition gate: a rename or a format
// regression fails here before a dashboard goes dark in production.
var requiredSeries = []string{
	"serve_req_total",
	"serve_req_inflight",
	"serve_req_latency_quantile_seconds",
	"serve_req_latency_sketch_count",
	"serve_gate_inflight",
	"serve_ctx_live",
	"runtime_goroutines",
	"runtime_heap_alloc_bytes",
	"runtime_gc_total",
	"runtime_uptime_seconds",
}

// TestMetricsExposition boots a real daemon, drives one artifact
// request through it, and validates the /metrics scrape end to end:
// the payload must parse as Prometheus text exposition (syntax,
// TYPE declarations, cumulative buckets — obs.ParsePrometheus is
// strict) and contain every required series.
func TestMetricsExposition(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errw strings.Builder
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-machines", "4", "-sim-days", "1", "-workload-days", "1",
			"-runtime-sample", "1s",
		}, &out, &errw, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("daemon exited %d before ready\nstderr: %s", code, errw.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("daemon never drained")
		}
	}()

	client := &http.Client{Timeout: 60 * time.Second}
	// One artifact request so per-endpoint latency sketches exist.
	resp, err := client.Get(fmt.Sprintf("http://%s/v1/artifacts/fig2", addr))
	if err != nil {
		t.Fatalf("GET /v1/artifacts/fig2: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact request: status %d", resp.StatusCode)
	}

	resp, err = client.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	dump, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	have := make(map[string]bool, len(dump.Samples))
	for _, s := range dump.Samples {
		have[s.Name] = true
	}
	for _, want := range requiredSeries {
		if !have[want] {
			t.Errorf("required series %s missing from /metrics", want)
		}
	}
	// The artifact endpoint's sketch quantiles must be present and
	// ordered (p50 <= p99): the live-latency contract reprobench
	// cross-checks against.
	ep := obs.Label{Name: "endpoint", Value: "artifacts"}
	p50, ok50 := dump.Value("serve_req_latency_quantile_seconds", ep, obs.Label{Name: "quantile", Value: "0.5"})
	p99, ok99 := dump.Value("serve_req_latency_quantile_seconds", ep, obs.Label{Name: "quantile", Value: "0.99"})
	if !ok50 || !ok99 {
		t.Fatalf("artifact latency quantiles missing (p50 %v, p99 %v)", ok50, ok99)
	}
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles disordered: p50=%g p99=%g", p50, p99)
	}
}

// TestAccessLogWritten boots a daemon with -access-log and asserts the
// schema: one JSONL record per request carrying the trace ID that the
// response echoed in X-Trace-Id.
func TestAccessLogWritten(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "access.jsonl")
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errw strings.Builder
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-machines", "4", "-sim-days", "1", "-workload-days", "1",
			"-access-log", logPath,
		}, &out, &errw, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("daemon exited %d before ready\nstderr: %s", code, errw.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/v1/experiments", addr))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", traceID)
	}

	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drain exit = %d\nstderr: %s", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("read access log: %v", err)
	}
	for _, want := range []string{
		`"method":"GET"`, `"path":"/v1/experiments"`, `"endpoint":"experiments"`,
		`"status":200`, `"trace_id":"` + traceID + `"`, `"gate_wait_us"`,
		`"coalesced":false`, `"ckpt_hit":false`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("access log missing %s:\n%s", want, data)
		}
	}
}
