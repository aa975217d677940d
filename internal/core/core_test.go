package core

import (
	"bytes"
	"context"
	"testing"
)

// sharedCtx caches one QuickConfig context across the package tests so
// the simulator runs once.
var sharedCtx = NewContext(QuickConfig())

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("got %d experiments, want 15 (12 figures + 3 tables)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := Find("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("fig99"); err == nil {
		t.Fatal("unknown experiment found")
	}
}

func TestRunAllProducesOutput(t *testing.T) {
	results, err := RunExperiments(context.Background(), sharedCtx, Experiments(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Experiments()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if len(r.Tables) == 0 && len(r.Series) == 0 {
			t.Errorf("%s produced no tables or series", r.ID)
		}
		for _, tbl := range r.Tables {
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Errorf("%s: render: %v", r.ID, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s: empty table", r.ID)
			}
		}
		for _, s := range r.Series {
			if len(s.X) == 0 {
				t.Errorf("%s: series %s has no points", r.ID, s.ID)
			}
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["low_priority_job_share"] < 0.5 {
		t.Errorf("low-priority share %v, want majority", r.Metrics["low_priority_job_share"])
	}
	if r.Metrics["high_priority_job_share"] <= 0 {
		t.Error("no high-priority jobs")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Metrics["google_P_len_lt_1000s"]
	if g < 0.55 {
		t.Errorf("google P(len<1000s) = %v, want majority short", g)
	}
	for _, name := range gridOrder {
		if gp := r.Metrics["gridP1000_"+name]; gp >= g {
			t.Errorf("%s P(len<1000s)=%v should be well below Google's %v", name, gp, g)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["google_joint_items"] >= r.Metrics["auvergrid_joint_items"] {
		t.Errorf("google joint items %v should be below auvergrid %v (stronger Pareto)",
			r.Metrics["google_joint_items"], r.Metrics["auvergrid_joint_items"])
	}
	// Paper: AuverGrid mean task 1.29x Google's but max 1.61x smaller.
	if r.Metrics["google_max_task_days"] <= r.Metrics["auvergrid_max_task_days"] {
		t.Errorf("google max task %v days should exceed auvergrid %v",
			r.Metrics["google_max_task_days"], r.Metrics["auvergrid_max_task_days"])
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["google_median_interval_s"] >= r.Metrics["auvergrid_median_interval_s"] {
		t.Errorf("google median interval %v should be below auvergrid %v",
			r.Metrics["google_median_interval_s"], r.Metrics["auvergrid_median_interval_s"])
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table1" || len(r.Tables) == 0 {
		t.Fatalf("table1 result: id %q, %d tables", r.ID, len(r.Tables))
	}
	gf := r.Metrics["Google_fairness"]
	if gf < 0.8 {
		t.Errorf("google fairness %v, want ~0.94", gf)
	}
	for _, name := range gridOrder {
		if f := r.Metrics[name+"_fairness"]; f >= gf {
			t.Errorf("%s fairness %v should be below Google's %v", name, f, gf)
		}
	}
	if r.Metrics["Google_avg"] < 400 || r.Metrics["Google_avg"] > 700 {
		t.Errorf("google avg rate %v, want ~552", r.Metrics["Google_avg"])
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["google_median_cpu"] >= r.Metrics["median_cpu_AuverGrid"] {
		t.Errorf("google median cpu %v should be below auvergrid %v",
			r.Metrics["google_median_cpu"], r.Metrics["median_cpu_AuverGrid"])
	}
	if r.Metrics["median_cpu_DAS-2"] <= r.Metrics["google_median_cpu"] {
		t.Error("DAS-2 should use more processors than Google")
	}
	if r.Metrics["google32_median_mem_mb"] >= r.Metrics["auvergrid_median_mem_mb"] {
		t.Errorf("google median mem %v MB should be below auvergrid %v MB",
			r.Metrics["google32_median_mem_mb"], r.Metrics["auvergrid_median_mem_mb"])
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("want 4 panels, got %d", len(r.Series))
	}
	// Memory maxima sit high but below capacity (paper: ~80%).
	mm := r.Metrics["mem_mean_max_over_capacity"]
	if mm < 0.5 || mm > 1.0 {
		t.Errorf("mean max memory/capacity %v, want ~0.8", mm)
	}
	am := r.Metrics["assigned_mean_max_over_capacity"]
	if am < mm {
		t.Errorf("assigned max %v should exceed used max %v", am, mm)
	}
	// Small machines tend to saturate at least as often as big ones;
	// at quick scale the per-class samples are tiny, so allow slack.
	if r.Metrics["cpu_maxload_at_capacity_cap025"] < r.Metrics["cpu_maxload_at_capacity_cap1"]-0.4 {
		t.Errorf("low-capacity machines should hit capacity roughly as often: %v vs %v",
			r.Metrics["cpu_maxload_at_capacity_cap025"], r.Metrics["cpu_maxload_at_capacity_cap1"])
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	af := r.Metrics["abnormal_fraction"]
	if af < 0.45 || af > 0.75 {
		t.Errorf("abnormal fraction %v, want ~0.59", af)
	}
	if fs := r.Metrics["fail_share_of_abnormal"]; fs < 0.3 || fs > 0.65 {
		t.Errorf("fail share %v, want ~0.50", fs)
	}
	if ks := r.Metrics["kill_share_of_abnormal"]; ks < 0.15 || ks > 0.45 {
		t.Errorf("kill share %v, want ~0.31", ks)
	}
	if r.Metrics["mean_pending_per_host"] > 1 {
		t.Errorf("pending per host %v, want ~0", r.Metrics["mean_pending_per_host"])
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	// At least some interval rows must have data; each populated joint
	// ratio must be skewed (items well below 50).
	populated := 0
	for k, v := range r.Metrics {
		if len(k) > 11 && k[:11] == "joint_items" && v > 0 {
			populated++
			if v > 45 {
				t.Errorf("%s = %v, want skewed (<45)", k, v)
			}
		}
	}
	if populated == 0 {
		t.Error("no populated queue-state intervals")
	}
}

func TestTables23Shape(t *testing.T) {
	r2, err := Table2(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Table3(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	// CPU levels flip fast (paper ~6 min); memory levels last longer on
	// the busiest level. Compare the mid usage level where both exist.
	cpuAvg, okCPU := r2.Metrics["avg_min_level0"]
	memAvg, okMem := r3.Metrics["avg_min_level0"]
	if !okCPU || !okMem {
		t.Skip("level 0 unpopulated at quick scale")
	}
	if cpuAvg <= 0 || memAvg <= 0 {
		t.Fatal("level durations must be positive")
	}
	if cpuAvg > 240 {
		t.Errorf("CPU level-0 avg %v min, want minutes-scale volatility", cpuAvg)
	}
}

func TestFig11Fig12Shape(t *testing.T) {
	r11, err := Fig11(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	r12, err := Fig12(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	cpuAll := r11.Metrics["mean_pct_all"]
	memAll := r12.Metrics["mean_pct_all"]
	if cpuAll >= memAll {
		t.Errorf("CPU usage %v%% should be below memory %v%% (paper: 35%% vs 60%%)", cpuAll, memAll)
	}
	if hp := r11.Metrics["mean_pct_high"]; hp >= cpuAll {
		t.Errorf("high-priority CPU %v%% should be below all-priority %v%%", hp, cpuAll)
	}
}

func TestFig13Shape(t *testing.T) {
	r, err := Fig13(sharedCtx)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.Metrics["noise_ratio_google_over_auvergrid"]
	if ratio < 5 {
		t.Errorf("noise ratio %v, want Google >> Grid (paper ~20x)", ratio)
	}
	if r.Metrics["google_autocorr"] >= r.Metrics["auvergrid_autocorr"] {
		t.Errorf("google autocorrelation %v should be below auvergrid %v",
			r.Metrics["google_autocorr"], r.Metrics["auvergrid_autocorr"])
	}
	if r.Metrics["google_mean_mem_usage"] <= r.Metrics["google_mean_cpu_usage"] {
		t.Error("google memory usage should exceed CPU usage")
	}
	// 3 systems x (full + two zoom panels).
	if len(r.Series) != 9 {
		t.Fatalf("want 9 host series, got %d", len(r.Series))
	}
	// Grid hosts' CPU and memory are driven by the same jobs and so
	// correlate more than the decoupled Google signals.
	if c := r.Metrics["google_cpu_mem_correlation"]; c > 0.9 {
		t.Errorf("google cpu-mem correlation %v suspiciously high", c)
	}
}
