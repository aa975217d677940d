package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// helperEnv marks the re-execed test binary as the repro subprocess.
const helperEnv = "REPRO_SIGNAL_HELPER"

// TestSignalHelperProcess is not a test: when re-exec'd with helperEnv
// set, it behaves as the repro CLI (the standard helper-process
// pattern), so the signal tests can drive a real process with real
// signal delivery and observe its true exit code.
func TestSignalHelperProcess(t *testing.T) {
	args := os.Getenv(helperEnv)
	if args == "" {
		t.Skip("helper process only runs under the signal tests")
	}
	os.Exit(run(context.Background(), strings.Split(args, "\n"), os.Stdout, os.Stderr))
}

// slowArgs builds a run long enough that a signal sent shortly after
// startup reliably lands mid-flight: a month-long serial simulation on
// few machines, so the bulk of the wall time sits inside the
// cancellation-aware event loop and the process still exits promptly
// after the signal.
func slowArgs(extra ...string) []string {
	return append([]string{"-machines", "20", "-sim-days", "90", "-workload-days", "1", "-parallel", "1"}, extra...)
}

// helper is a running repro subprocess. A goroutine owns its Wait, so
// the process is reaped exactly once whichever path the test takes.
type helper struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait returns
	err    error         // Wait's result; read only after exited is closed
}

// startHelper launches this test binary as a repro process running the
// given CLI args and waits (up to 30s) for the scale banner on stdout —
// proof that flag parsing succeeded and the signal handler is
// installed, since the banner prints after it. A cleanup kills and
// reaps the process, so no failure path can leave it running.
func startHelper(t *testing.T, args []string) *helper {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestSignalHelperProcess")
	cmd.Env = append(os.Environ(), helperEnv+"="+strings.Join(args, "\n"))
	// An os.Pipe rather than StdoutPipe: Wait closes a StdoutPipe, so
	// it could not run while the banner reader is still reading.
	stdout, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = w, io.Discard
	err = cmd.Start()
	w.Close()
	if err != nil {
		stdout.Close()
		t.Fatal(err)
	}
	h := &helper{cmd: cmd, exited: make(chan struct{})}
	go func() {
		h.err = cmd.Wait()
		close(h.exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() // fails harmlessly once the process has exited
		<-h.exited
	})
	banner := make(chan string, 1)
	go func() {
		defer stdout.Close()
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			banner <- sc.Text()
		}
		close(banner)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line, ok := <-banner:
		if !ok || !strings.Contains(line, "reproduction scale") {
			t.Fatalf("unexpected first output line %q", line)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no banner from helper within 30s")
	}
	return h
}

// signalAndWait sends sig to the helper and returns its exit code,
// failing the test if the process did not exit within 30s.
func signalAndWait(t *testing.T, h *helper, sig os.Signal) int {
	t.Helper()
	if err := h.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.exited:
		ee, ok := h.err.(*exec.ExitError)
		if !ok {
			t.Fatalf("helper exited cleanly (err=%v), want non-zero signal exit", h.err)
		}
		return ee.ExitCode()
	case <-time.After(30 * time.Second):
		t.Fatal("helper did not exit within 30s of signal")
		return -1
	}
}

// TestSIGINTExits130AndFlushes: a SIGINT mid-run must (1) exit with
// 128+SIGINT = 130, not crash or exit 1, and (2) still produce a
// complete, well-formed -metrics-out file — the observability buffers
// are flushed on the interrupt path, not lost.
func TestSIGINTExits130AndFlushes(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.jsonl")
	h := startHelper(t, slowArgs("-metrics-out", metrics))
	time.Sleep(200 * time.Millisecond) // let the run get genuinely mid-experiment
	if code := signalAndWait(t, h, syscall.SIGINT); code != 130 {
		t.Fatalf("exit code = %d, want 130 (128+SIGINT)", code)
	}

	// The metrics file must exist and be valid JSONL to the last line:
	// a torn or unflushed buffer would fail here.
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics file not flushed: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("metrics file empty after SIGINT")
	}
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("metrics line %d not valid JSON after SIGINT: %v", i, err)
		}
	}
}

// TestSIGTERMExits143AndFlushesTrace: the same contract for SIGTERM
// (128+15) with the Chrome trace output.
func TestSIGTERMExits143AndFlushesTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	h := startHelper(t, slowArgs("-trace-out", trace))
	time.Sleep(200 * time.Millisecond)
	if code := signalAndWait(t, h, syscall.SIGTERM); code != 143 {
		t.Fatalf("exit code = %d, want 143 (128+SIGTERM)", code)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace file not flushed: %v", err)
	}
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("trace file not valid JSON after SIGTERM: %v", err)
	}
}
