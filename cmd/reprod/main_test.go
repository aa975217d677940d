package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/replica"
)

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad scale", []string{"-scale", "huge"}, "unknown scale"},
		{"negative machines", []string{"-machines", "-1"}, "must be positive"},
		{"zero sim days", []string{"-sim-days", "0"}, "must be positive"},
		{"zero workload days", []string{"-workload-days", "0"}, "must be positive"},
		{"negative queue", []string{"-max-queue", "-1"}, "-max-queue"},
		{"zero contexts", []string{"-max-contexts", "0"}, "-max-contexts"},
		{"negative build timeout", []string{"-build-timeout", "-1s"}, "non-negative"},
		{"zero access sample", []string{"-access-log-sample", "0"}, "-access-log-sample"},
		{"zero trace buffer", []string{"-trace-buffer", "0"}, "-trace-buffer"},
		{"negative runtime sample", []string{"-runtime-sample", "-1s"}, "-runtime-sample"},
		{"unparseable flag", []string{"-machines", "lots"}, "invalid value"},
		{"replica without store", []string{"-replica-id", "r0"}, "-replica-id requires -checkpoint-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if code := run(tc.args, &out, &errw, nil); code != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", tc.args, code, errw.String())
			}
			if !strings.Contains(errw.String(), tc.want) {
				t.Errorf("stderr %q, want it to mention %q", errw.String(), tc.want)
			}
		})
	}
}

func TestRunListenFailure(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-addr", "256.256.256.256:1"}, &out, &errw, nil); code != 1 {
		t.Fatalf("run with unusable addr = %d, want 1\nstderr: %s", code, errw.String())
	}
}

func TestRunBadCheckpointDir(t *testing.T) {
	// A checkpoint path that collides with a regular file cannot be a
	// directory, so the store must refuse it before the listener opens.
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := run([]string{"-checkpoint-dir", f}, &out, &errw, nil); code != 1 {
		t.Fatalf("run with file as checkpoint dir = %d, want 1\nstderr: %s", code, errw.String())
	}
}

// TestRunServeAndDrain is the end-to-end daemon test: boot on an
// ephemeral port, hit the read-only endpoints, then send ourselves
// SIGTERM and require a clean exit-0 drain.
func TestRunServeAndDrain(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "metrics.jsonl")
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errw strings.Builder
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-machines", "4", "-sim-days", "1", "-workload-days", "1",
			"-metrics-out", metricsOut,
		}, &out, &errw, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("daemon exited %d before becoming ready\nstderr: %s", code, errw.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range []struct {
		path string
		code int
		want string
	}{
		{"/healthz", http.StatusOK, `"status":"ok"`},
		{"/v1/experiments", http.StatusOK, "fig2"},
		{"/metrics", http.StatusOK, "serve_req_total"},
		{"/v1/artifacts/nonsense", http.StatusNotFound, "unknown experiment"},
		{"/v1/predict?system=AuverGrid&hosts=2&days=1", http.StatusOK, "best-fit predictor"},
		{"/v1/predict?system=Mars", http.StatusBadRequest, "system"},
	} {
		resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, tc.path))
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d (body: %s)", tc.path, resp.StatusCode, tc.code, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s body %q, want it to contain %q", tc.path, body, tc.want)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drain exit = %d, want 0\nstderr: %s", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained after SIGTERM")
	}
	if !strings.Contains(errw.String(), "drained cleanly") {
		t.Errorf("stderr %q, want a clean-drain message", errw.String())
	}
	if data, err := os.ReadFile(metricsOut); err != nil || !strings.Contains(string(data), "serve.req.total") {
		t.Errorf("metrics-out: err=%v, content missing serve.req.total:\n%s", err, data)
	}
}

// TestChaosRulesPinned pins what -chaos-seed arms, draw for draw: with
// every site armed (prob 1), seed 1 fails the 20th lease acquire, the
// 13th renewal, the 3rd release and the 2nd store write. Shifting one
// rng draw changes these silently, so any change here is deliberate.
func TestChaosRulesPinned(t *testing.T) {
	t.Parallel()
	want := []fault.Rule{
		{Site: replica.SiteLeaseAcquire, Hit: 20, Kind: fault.Error},
		{Site: replica.SiteLeaseRenew, Hit: 13, Kind: fault.Error},
		{Site: replica.SiteLeaseRelease, Hit: 3, Kind: fault.Error},
		{Site: replica.SiteCkptWrite, Hit: 2, Kind: fault.Error},
	}
	if got := chaosRules(1, 1); !slices.Equal(got, want) {
		t.Fatalf("chaosRules(1, 1) = %+v\nwant %+v", got, want)
	}
	if got := chaosRules(1, 0); len(got) != 0 {
		t.Fatalf("chaosRules(1, 0) = %+v, want no rules", got)
	}
}
