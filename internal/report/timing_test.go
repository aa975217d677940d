package report

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleTimingRows() []TimingRow {
	return []TimingRow{
		{Name: "exp:fig3", Count: 1, Wall: 1234 * time.Millisecond},
		{Name: "build:sim", Count: 1, Wall: 250 * time.Microsecond},
	}
}

func TestTimingTableRender(t *testing.T) {
	var buf bytes.Buffer
	if err := TimingTable(sampleTimingRows()).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Per-stage wall time",
		"stage", "wall",
		"exp:fig3", "1.234s",
		"build:sim", "250µs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTimingTableMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := TimingTable(sampleTimingRows()).WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"| stage |", "| exp:fig3 |", "|---|"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTimingTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := TimingTable(nil).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stage") {
		t.Error("empty timing table missing header")
	}
}

func TestDur(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{1234 * time.Millisecond, "1.234s"},
		{90 * time.Millisecond, "90ms"},
		{250 * time.Microsecond, "250µs"},
		{1500 * time.Microsecond, "2ms"}, // rounds at ms resolution
	}
	for _, c := range cases {
		if got := Dur(c.in); got != c.want {
			t.Errorf("Dur(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
