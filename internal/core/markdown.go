package core

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/report"
)

// This file is the single markdown renderer for regenerated artifacts.
// Both emitters — cmd/repro's -markdown report and the serving daemon's
// /v1/report and /v1/artifacts/{id}?format=md endpoints — go through
// these functions, which is what makes the daemon's determinism
// contract (served bytes == CLI bytes for the same config) structural
// rather than accidental.

// SortedMetricKeys returns a result's metric names in ascending order,
// the stable order every renderer (verbose CLI output, markdown,
// served JSON consumers) iterates metrics in.
func SortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// WriteResultMarkdown renders one result as a markdown section: the
// "## <id> — <title>" heading, the tables, blockquoted notes and a
// collapsed metrics list (or the FAILED annotation for a keep-going
// placeholder).
func WriteResultMarkdown(w io.Writer, r *Result) error {
	fmt.Fprintf(w, "## %s — %s\n\n", r.ID, r.Title)
	if r.Failed() {
		fmt.Fprintf(w, "**FAILED:** %s\n\n", r.Err)
		return nil
	}
	for _, tbl := range r.Tables {
		if err := tbl.WriteMarkdown(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "> %s\n\n", note)
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintf(w, "<details><summary>metrics</summary>\n\n")
		for _, k := range SortedMetricKeys(r.Metrics) {
			fmt.Fprintf(w, "- `%s` = %.4g\n", k, r.Metrics[k])
		}
		fmt.Fprintf(w, "\n</details>\n\n")
	}
	return nil
}

// WriteMarkdownReport renders a full reproduction report: the scale
// header, every result section in list order, and — when timing rows
// are supplied (instrumented CLI runs only) — the timing table. The
// daemon always passes nil timing so served reports stay
// byte-identical to uninstrumented CLI reports.
func WriteMarkdownReport(w io.Writer, cfg Config, results []*Result, timing []report.TimingRow) error {
	writeMarkdownHeader(w, cfg)
	for _, r := range results {
		if err := WriteResultMarkdown(w, r); err != nil {
			return err
		}
	}
	if len(timing) > 0 {
		fmt.Fprintf(w, "## Timing\n\n")
		if err := report.TimingTable(timing).WriteMarkdown(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteMarkdownReportSections writes the report WriteMarkdownReport
// produces for results and nil timing, from sections already rendered
// by WriteResultMarkdown, one per result in list order. The daemon
// caches each result's section and assembles /v1/report with it
// instead of re-rendering every result.
func WriteMarkdownReportSections(w io.Writer, cfg Config, sections [][]byte) error {
	writeMarkdownHeader(w, cfg)
	for _, s := range sections {
		if _, err := w.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// writeMarkdownHeader writes the title and scale line that open every
// report.
func writeMarkdownHeader(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "# Reproduction report\n\n")
	fmt.Fprintf(w, "Scale: %d machines, %.0f-day simulation, %.0f-day workload, seed %d.\n\n",
		cfg.Machines, float64(cfg.SimHorizon)/86400, float64(cfg.WorkloadHorizon)/86400, cfg.Seed)
}
