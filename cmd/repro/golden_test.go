package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestQuickSeed1OutputsPinned pins one SHA-256 over everything a
// `-scale quick -seed 1` run writes: the markdown report, then every
// -out file in name order, each hashed with its name and length. A
// change that moves any output byte fails here; if the change is meant,
// recompute the digest and say why the outputs moved. Go may fuse
// a*b+c into one rounding on arm64, ppc64 and s390x, so the digest
// pins amd64 output only.
func TestQuickSeed1OutputsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest pins amd64 floating point")
	}
	const want = "fb6093cf168083d20d92f9edc11b5db93eb0684bf871e708f3676a06459bc41a"
	dir := t.TempDir()
	outDir, report := filepath.Join(dir, "out"), filepath.Join(dir, "report.md")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-scale", "quick", "-seed", "1", "-parallel", "1",
		"-markdown", report, "-out", outDir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	files, err := os.ReadDir(outDir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{report}
	for _, f := range files {
		paths = append(paths, filepath.Join(outDir, f.Name()))
	}
	h := sha256.New()
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(path), len(b))
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("quick seed-1 outputs (report + %d files) hash to %s, want %s", len(files), got, want)
	}
}
