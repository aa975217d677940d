package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stripTimingSummary removes the optional trailing timing-summary
// block, the single stdout section instrumentation is allowed to add.
func stripTimingSummary(s string) string {
	if i := strings.Index(s, "=== timing summary"); i >= 0 {
		return s[:i]
	}
	return s
}

// TestInstrumentationByteIdentical is the command-level half of the
// invariant: a run with -metrics-out and -trace-out produces the same
// stdout (timing normalised, summary stripped) and byte-identical
// .dat/.csv files as an uninstrumented run.
func TestInstrumentationByteIdentical(t *testing.T) {
	plainDir, obsDir := t.TempDir(), t.TempDir()
	scratch := t.TempDir()
	metricsPath := filepath.Join(scratch, "metrics.jsonl")
	tracePath := filepath.Join(scratch, "trace.json")

	var plainOut, plainErr bytes.Buffer
	if code := run(context.Background(), tiny("-out", plainDir, "-v"), &plainOut, &plainErr); code != 0 {
		t.Fatalf("plain run: exit %d: %s", code, plainErr.String())
	}
	var obsOut, obsErr bytes.Buffer
	if code := run(context.Background(), tiny("-out", obsDir, "-v", "-metrics-out", metricsPath, "-trace-out", tracePath),
		&obsOut, &obsErr); code != 0 {
		t.Fatalf("instrumented run: exit %d: %s", code, obsErr.String())
	}

	norm := func(s, dir string) string {
		s = stripTimingSummary(s)
		s = strings.ReplaceAll(s, dir, "OUT")
		return timingRe.ReplaceAllString(s, "(T)")
	}
	if a, b := norm(plainOut.String(), plainDir), norm(obsOut.String(), obsDir); a != b {
		t.Errorf("stdout differs with instrumentation on:\n--- plain ---\n%s\n--- instrumented ---\n%s", a, b)
	}
	if !strings.Contains(obsOut.String(), "=== timing summary") {
		t.Error("instrumented -v run missing timing summary")
	}
	if strings.Contains(plainOut.String(), "=== timing summary") {
		t.Error("uninstrumented run printed a timing summary")
	}

	files, err := os.ReadDir(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("plain run wrote no output files")
	}
	for _, f := range files {
		a, err := os.ReadFile(filepath.Join(plainDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(obsDir, f.Name()))
		if err != nil {
			t.Fatalf("instrumented run missing %s: %v", f.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs with instrumentation on", f.Name())
		}
	}
}

// TestMetricsOutWellFormed: every -metrics-out line is a JSON object,
// and the cluster event counters, cell hit/miss counters and span lines
// the tentpole promises are all present.
func TestMetricsOutWellFormed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), tiny("-metrics-out", path, "-parallel", "4"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if n, ok := m["name"].(string); ok {
			names[n] = true
		}
		if ty, ok := m["type"].(string); ok {
			types[ty] = true
		}
	}
	for _, want := range []string{
		"cluster.events_dispatched",
		"cluster.machine_scans",
		"cluster.queue_depth",
		"cluster.tasks_scheduled",
		"core.cell.google_tasks.miss",
		"core.cell.sim.miss",
		"par.worker_busy_us",
	} {
		if !names[want] {
			t.Errorf("metrics output missing %s", want)
		}
	}
	for _, want := range []string{"counter", "gauge", "histogram", "span"} {
		if !types[want] {
			t.Errorf("metrics output has no %s lines", want)
		}
	}
}

// TestTraceOutLoadable: -trace-out is one JSON object in Chrome
// trace_event format with a complete span per experiment and at least
// one per-worker span.
func TestTraceOutLoadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), tiny("-trace-out", path, "-parallel", "4"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	expSpans := map[string]int{}
	workerSpans, metadata := 0, 0
	for _, ev := range payload.TraceEvents {
		switch {
		case ev.Ph == "M":
			metadata++
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "exp:"):
			expSpans[ev.Name]++
		case ev.Ph == "X" && ev.Cat == "worker":
			workerSpans++
		}
	}
	if metadata == 0 {
		t.Error("trace has no metadata events")
	}
	if workerSpans == 0 {
		t.Error("trace has no per-worker spans")
	}
	if len(expSpans) < 10 {
		t.Errorf("trace has %d distinct experiment spans, want the full registry", len(expSpans))
	}
	for name, n := range expSpans {
		if n != 1 {
			t.Errorf("experiment %s has %d spans, want 1", name, n)
		}
	}
}

// TestObsBadPathsFailFast: an unwritable -metrics-out or -trace-out
// path fails before any experiment runs.
func TestObsBadPathsFailFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "x")
	for _, flag := range []string{"-metrics-out", "-trace-out"} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), tiny(flag, bad), &out, &errOut); code == 0 {
			t.Errorf("%s with bad path exited 0", flag)
		}
		if strings.Contains(out.String(), "===") {
			t.Errorf("%s with bad path still ran experiments", flag)
		}
	}
}

// TestSeedZeroHonored: -seed 0 is a legal explicit override (the old
// code treated 0 as "flag unset" and silently kept the default).
func TestSeedZeroHonored(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), tiny("-only", "table1", "-seed", "0"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "seed 0\n") {
		t.Errorf("-seed 0 not honored: %q", strings.SplitN(out.String(), "\n", 2)[0])
	}
	out.Reset()
	if code := run(context.Background(), tiny("-only", "table1"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "seed 1\n") {
		t.Errorf("default seed changed: %q", strings.SplitN(out.String(), "\n", 2)[0])
	}
}

// TestExplicitZeroOverridesRejected: explicit non-positive scale
// overrides are an error, not silently ignored values.
func TestExplicitZeroOverridesRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-machines", "0"},
		{"-machines", "-5"},
		{"-sim-days", "0"},
		{"-workload-days", "-1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "must be positive") {
			t.Errorf("%v: missing diagnostic, got %q", args, errOut.String())
		}
	}
}

// TestProgressFlag: -progress reports each experiment on stderr and
// leaves stdout untouched.
func TestProgressFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), tiny("-only", "table1,fig4", "-progress"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if got := strings.Count(errOut.String(), "progress:"); got != 2 {
		t.Errorf("stderr has %d progress lines, want 2:\n%s", got, errOut.String())
	}
	if !strings.Contains(errOut.String(), "[2/2]") {
		t.Errorf("progress lines missing counts:\n%s", errOut.String())
	}
	if strings.Contains(out.String(), "progress:") {
		t.Error("progress lines leaked to stdout")
	}
}

// TestMarkdownTimingSection: the markdown report gains a Timing section
// only when instrumented.
func TestMarkdownTimingSection(t *testing.T) {
	dir := t.TempDir()
	plain, instr := filepath.Join(dir, "plain.md"), filepath.Join(dir, "instr.md")
	var out, errOut bytes.Buffer
	if code := run(context.Background(), tiny("-only", "table1", "-markdown", plain), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run(context.Background(), tiny("-only", "table1", "-markdown", instr,
		"-metrics-out", filepath.Join(dir, "m.jsonl")), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	plainText, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	instrText, err := os.ReadFile(instr)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plainText), "## Timing") {
		t.Error("uninstrumented markdown has a Timing section")
	}
	for _, want := range []string{"## Timing", "exp:table1", "| stage |"} {
		if !strings.Contains(string(instrText), want) {
			t.Errorf("instrumented markdown missing %q", want)
		}
	}
}
