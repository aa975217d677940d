package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestCLIChaosInvariant is the end-to-end chaos invariant: a run with
// an injected panic under -keep-going must (1) exit with the
// keep-going failure code, (2) annotate the hit experiment, and (3)
// write byte-identical .dat/.csv artifacts for every experiment the
// fault did not touch — chaos in one experiment never bleeds into its
// neighbours' outputs.
func TestCLIChaosInvariant(t *testing.T) {
	t.Parallel()
	cleanDir, chaosDir := t.TempDir(), t.TempDir()

	var cleanOut bytes.Buffer
	if code := run(context.Background(), tiny("-out", cleanDir), &cleanOut, io.Discard); code != 0 {
		t.Fatalf("clean run exit = %d, want 0", code)
	}

	plan := fault.NewPlan(fault.Rule{Site: "core.exp.fig4", Hit: 1, Kind: fault.Panic})
	var chaosOut bytes.Buffer
	code := run(fault.With(context.Background(), plan), tiny("-keep-going", "-out", chaosDir), &chaosOut, io.Discard)
	if code != exitKeepGoingFailures {
		t.Fatalf("chaos run exit = %d, want %d", code, exitKeepGoingFailures)
	}
	if !strings.Contains(chaosOut.String(), "FAILED:") {
		t.Fatalf("chaos stdout lacks FAILED annotation:\n%s", chaosOut.String())
	}

	files, err := os.ReadDir(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("clean run produced no artifacts")
	}
	checked := 0
	for _, f := range files {
		if strings.HasPrefix(f.Name(), "fig4") {
			// The faulted experiment must produce nothing, not garbage.
			if _, err := os.Stat(filepath.Join(chaosDir, f.Name())); err == nil {
				t.Fatalf("faulted experiment still wrote %s", f.Name())
			}
			continue
		}
		want, err := os.ReadFile(filepath.Join(cleanDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(chaosDir, f.Name()))
		if err != nil {
			t.Fatalf("unaffected artifact %s missing from chaos run: %v", f.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("artifact %s differs between clean and chaos runs", f.Name())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no unaffected artifacts compared")
	}
}

// TestCLIChaosWithoutKeepGoingAborts: the same injected fault without
// -keep-going must abort the run with a non-zero, non-keep-going exit.
func TestCLIChaosWithoutKeepGoingAborts(t *testing.T) {
	t.Parallel()
	plan := fault.NewPlan(fault.Rule{Site: "core.exp.fig3", Hit: 1, Kind: fault.Error})
	var out, errOut bytes.Buffer
	code := run(fault.With(context.Background(), plan), tiny(), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "core: fig3") {
		t.Fatalf("stderr lacks the failing experiment:\n%s", errOut.String())
	}
}

// readCounters parses a metrics JSONL file into counter name → value.
func readCounters(t *testing.T, path string) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m struct {
			Name  string  `json:"name"`
			Type  string  `json:"type"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		if m.Type == "counter" {
			out[m.Name] = m.Value
		}
	}
	return out
}

// TestCLICheckpointResume is the end-to-end resume criterion: a second
// run with the same -checkpoint-dir must serve every experiment from
// its checkpoint (ckpt.hit == first run's ckpt.store), rebuild zero
// artifact cells, and still print byte-identical results.
func TestCLICheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ckpt")
	m1 := filepath.Join(dir, "m1.jsonl")
	m2 := filepath.Join(dir, "m2.jsonl")

	var out1 bytes.Buffer
	if code := run(context.Background(), tiny("-checkpoint-dir", ck, "-metrics-out", m1), &out1, io.Discard); code != 0 {
		t.Fatalf("cold run exit = %d, want 0", code)
	}
	cold := readCounters(t, m1)
	if cold["ckpt.store"] == 0 {
		t.Fatalf("cold run stored no checkpoints: %v", cold)
	}
	if cold["ckpt.hit"] != 0 {
		t.Fatalf("cold run had %v checkpoint hits, want 0", cold["ckpt.hit"])
	}

	var out2 bytes.Buffer
	if code := run(context.Background(), tiny("-checkpoint-dir", ck, "-metrics-out", m2), &out2, io.Discard); code != 0 {
		t.Fatalf("warm run exit = %d, want 0", code)
	}
	warm := readCounters(t, m2)
	if warm["ckpt.hit"] != cold["ckpt.store"] {
		t.Fatalf("warm ckpt.hit = %v, want %v (one per stored experiment)", warm["ckpt.hit"], cold["ckpt.store"])
	}
	for name, v := range warm {
		if strings.HasPrefix(name, "core.cell.") && strings.HasSuffix(name, ".miss") && v != 0 {
			t.Fatalf("warm run rebuilt artifact cell %s %v times, want 0", name, v)
		}
	}

	// Output identical modulo the per-experiment wall times.
	a := timingRe.ReplaceAllString(out1.String(), "(T)")
	b := timingRe.ReplaceAllString(out2.String(), "(T)")
	if a != b {
		t.Fatalf("warm run output differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", a, b)
	}
}

// TestCLICheckpointPartialResume: checkpoints for a subset of
// experiments (-only) must be reused when the full set runs, so an
// interrupted run's survivors are never rebuilt.
func TestCLICheckpointPartialResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ckpt")
	m := filepath.Join(dir, "m.jsonl")

	var out bytes.Buffer
	if code := run(context.Background(), tiny("-checkpoint-dir", ck, "-only", "fig2,fig5"), &out, io.Discard); code != 0 {
		t.Fatalf("partial run exit = %d, want 0", code)
	}
	out.Reset()
	if code := run(context.Background(), tiny("-checkpoint-dir", ck, "-metrics-out", m), &out, io.Discard); code != 0 {
		t.Fatalf("full run exit = %d, want 0", code)
	}
	c := readCounters(t, m)
	if c["ckpt.hit"] != 2 {
		t.Fatalf("full run ckpt.hit = %v, want 2 (fig2 and fig5 resumed)", c["ckpt.hit"])
	}
	if c["ckpt.store"] == 0 {
		t.Fatalf("full run stored no new checkpoints: %v", c)
	}
}
