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

// Bytes formats a byte count with a binary-prefix unit.
func Bytes(n int64) string {
	abs := n
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case abs >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case abs >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
