package core

import (
	"bytes"
	"testing"

	"repro/internal/report"
)

// TestMarkdownReportFromSections: a report assembled from pre-rendered
// sections is byte-identical to one rendered from the results.
func TestMarkdownReportFromSections(t *testing.T) {
	a := newResult("fig1", "First")
	a.Tables = []*report.Table{{ID: "t1", Title: "T", Columns: []string{"x", "y"}, Rows: [][]string{{"1", "2"}}}}
	a.Notes = []string{"a note"}
	a.Metrics["m"] = 0.5
	b := &Result{ID: "fig2", Title: "Second", Err: "deadline exceeded"}
	results := []*Result{a, b}
	cfg := QuickConfig()

	for n := 0; n <= len(results); n++ {
		var full, got bytes.Buffer
		if err := WriteMarkdownReport(&full, cfg, results[:n], nil); err != nil {
			t.Fatal(err)
		}
		sections := make([][]byte, n)
		for i, r := range results[:n] {
			var sec bytes.Buffer
			if err := WriteResultMarkdown(&sec, r); err != nil {
				t.Fatal(err)
			}
			sections[i] = sec.Bytes()
		}
		if err := WriteMarkdownReportSections(&got, cfg, sections); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), full.Bytes()) {
			t.Fatalf("%d sections:\n%s\nwant:\n%s", n, got.Bytes(), full.Bytes())
		}
	}
}
