package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestQuantileUsesCeilRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {0, 1}, {1, 10},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want x_(⌈p·n⌉) = %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{100, 0.9, true},   // rank 90, 10 beyond
		{99, 0.9, false},   // rank 90, 9 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{19, 0.5, false},   // rank 10, 9 beyond
		{0, 0.5, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	d := newDist(make([]float64, 500))
	if _, err := d.q(0.99); err == nil {
		t.Error("p99 over 500 samples was reported")
	}
	if p := d.tailP(0.99, 0.9); p != 0.9 {
		t.Errorf("tailP over 500 samples = %g, want 0.9", p)
	}
}

func TestAddLatencyNamesTheReportedTail(t *testing.T) {
	var m metrics
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	m.addLatency("cold_", xs, 0.99, 0.9)
	if _, ok := m.get("cold_p99_ms"); ok {
		t.Error("p99 reported over 500 samples")
	}
	p90, ok := m.get("cold_p90_ms")
	if !ok || p90.N != 500 || p90.Value != 449 {
		t.Errorf("cold_p90_ms = %+v, want 449 over n=500", p90)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"p50_ms", "core.cell.grid_LLNL-Atlas.miss", "serve.handler_us.304", "9lives"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "p50%", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

func TestMetricsRejectInvalidNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("adding an invalid metric name did not panic")
		}
	}()
	var m metrics
	m.add("bad name", "ms", 1, 1, "")
}

// TestSpecStatesTheConstants keeps BENCHMARK.json's rationale in step
// with the constants the code runs: the serve-mixed rates and the
// reproduce layer-budget tolerance.
func TestSpecStatesTheConstants(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	why := map[string]string{}
	for _, w := range sp.Workloads {
		why[w.Name] = w.Why
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(why) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code %d", len(why), len(workloads))
	}
	for _, want := range []string{fmt.Sprintf("hot %d req/s", hotRate), fmt.Sprintf("cold %d req/s", coldRate)} {
		if !strings.Contains(why["serve-mixed"], want) {
			t.Errorf("serve-mixed rationale does not state %q", want)
		}
	}
	if want := fmt.Sprintf("%.0f%% unattributed", 100*unattributedTolerance); !strings.Contains(why["reproduce"], want) {
		t.Errorf("reproduce rationale does not state %q", want)
	}
	seen := map[string]bool{}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var names []string
	for _, m := range sp.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range sp.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !validName(n) || seen[n] {
			t.Errorf("metric name %q is invalid or repeated", n)
		}
		seen[n] = true
	}
	if !seen["setup_s"] || len(sp.PerLayer) > 128 {
		t.Errorf("want setup_s among the end-to-end metrics and at most 128 per-layer ones")
	}
}

func TestHotCycleIsTheSameMixForEverySeed(t *testing.T) {
	urls := []*hotURL{{path: "/a"}, {path: "/b"}, {path: "/c"}}
	count := func(seed uint64) map[string]int {
		m := map[string]int{}
		for _, r := range hotCycle(urls, seed) {
			m[fmt.Sprintf("%s %v", r.u.path, r.inm)]++
		}
		return m
	}
	a, b := count(1), count(2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("mix differs across seeds: %v vs %v", a, b)
	}
	if a["/a true"] != 1 || a["/a false"] != hotRevalidateEvery-1 {
		t.Errorf("want 1 revalidation per %d requests of a URL, got %v", hotRevalidateEvery, a)
	}
}

func TestColdPlan(t *testing.T) {
	var hist []uint64
	for i := 0; i < revisitDistance; i++ {
		hist = append(hist, warmSeedBase+uint64(i))
	}
	n := 120
	fresh := func(seed uint64) []uint64 {
		var s []uint64
		plan := coldPlan(n, seed, hist)
		if len(plan) != n {
			t.Fatalf("plan has %d requests, want %d", len(plan), n)
		}
		built := slices.Clone(hist)
		for i, r := range plan {
			if r.exp != coldExps[i%len(coldExps)] {
				t.Fatalf("request %d is %s, want %s", i, r.exp, coldExps[i%len(coldExps)])
			}
			if i%len(coldExps) != 0 {
				continue
			}
			if r.revisit {
				// The target must be out of the daemon's 8-entry
				// context LRU: at least 8 other scenarios since.
				at := slices.Index(built, r.seed)
				if at < 0 || len(built)-at < 9 {
					t.Errorf("revisit of %d is only %d scenarios back", r.seed, len(built)-at)
				}
				continue
			}
			built = append(built, r.seed)
			s = append(s, r.seed)
		}
		return s
	}
	a, b := fresh(1), fresh(2)
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 order the new scenarios identically")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("seeds 1 and 2 build different scenario sets")
	}
}

func TestParseGCTrace(t *testing.T) {
	lines := []string{
		"gc 1 @0.010s 2%: 0.015+1.2+0.005 ms clock, 0.030+0.1/0.5/0+0.010 ms cpu, 4->5->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"gc 2 @0.020s 2%: 0.020+1.0+0.010 ms clock, 0.040+0.1/0.5/0+0.020 ms cpu, 6->7->3 MB, 6 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"not a gc line",
	}
	cycles, pause, alloc := parseGCTrace(lines)
	if cycles != 2 || math.Abs(pause-0.05) > 1e-9 || alloc != 5 {
		t.Errorf("parseGCTrace = %d cycles, %g ms, %g MB; want 2, 0.05, 5", cycles, pause, alloc)
	}
}

func TestSelfTimesUseNestedIntervals(t *testing.T) {
	// exp covers 0-100; two cell builds nested in each other under it
	// are both linked to exp, as the daemon links them.
	spans := []spanRec{
		{Name: "exp", TraceID: "t", SpanID: "e", StartUS: 0, DurUS: 100},
		{Name: "jobs", TraceID: "t", SpanID: "j", ParentID: "e", StartUS: 10, DurUS: 60},
		{Name: "tasks", TraceID: "t", SpanID: "k", ParentID: "e", StartUS: 20, DurUS: 40},
		{Name: "other", TraceID: "u", SpanID: "o", StartUS: 0, DurUS: 100},
	}
	got := selfTimes(spans)
	for name, want := range map[string]float64{"exp": 0.04, "jobs": 0.02, "tasks": 0.04, "other": 0.1} {
		if len(got[name]) != 1 || math.Abs(got[name][0]-want) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %g", name, got[name], want)
		}
	}
}
