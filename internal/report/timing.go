package report

import (
	"fmt"
	"time"
)

// TimingRow is one pipeline stage's (or experiment's) timing summary,
// as measured by internal/obs.
type TimingRow struct {
	Name  string
	Count int
	Wall  time.Duration
}

// TimingTable renders timing rows as the CLI/markdown summary table.
func TimingTable(rows []TimingRow) *Table {
	t := &Table{
		ID:      "timing",
		Title:   "Per-stage wall time",
		Columns: []string{"stage", "n", "wall"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%d", r.Count), Dur(r.Wall))
	}
	return t
}

// Dur formats a duration for table cells at millisecond resolution.
func Dur(d time.Duration) string {
	if d < time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(time.Millisecond).String()
}
