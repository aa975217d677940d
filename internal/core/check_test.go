package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestExpectationsWellFormed(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
	}
	for _, e := range Expectations() {
		if !ids[e.Experiment] {
			t.Errorf("expectation references unknown experiment %q", e.Experiment)
		}
		if e.Lo > e.Hi {
			t.Errorf("%s/%s: Lo %v > Hi %v", e.Experiment, e.Metric, e.Lo, e.Hi)
		}
		if e.Metric == "" || e.Note == "" {
			t.Errorf("%s: incomplete expectation", e.Experiment)
		}
	}
	if len(Expectations()) < 25 {
		t.Errorf("only %d expectations", len(Expectations()))
	}
}

func TestCheckVerdicts(t *testing.T) {
	results := []*Result{
		{ID: "fig4", Metrics: map[string]float64{
			"google_joint_items":    6.5, // in band
			"auvergrid_joint_items": 99,  // out of band
		}},
	}
	crs := Check(results)
	byKey := map[string]CheckResult{}
	for _, c := range crs {
		byKey[c.Experiment+"/"+c.Metric] = c
	}
	if c := byKey["fig4/google_joint_items"]; !c.Found || !c.Pass {
		t.Fatalf("in-band metric failed: %+v", c)
	}
	if c := byKey["fig4/auvergrid_joint_items"]; !c.Found || c.Pass {
		t.Fatalf("out-of-band metric passed: %+v", c)
	}
	if c := byKey["table1/Google_avg"]; c.Found || c.Pass {
		t.Fatalf("missing metric should fail: %+v", c)
	}
}

func TestRenderChecks(t *testing.T) {
	crs := Check([]*Result{
		{ID: "fig4", Metrics: map[string]float64{"google_joint_items": 6}},
	})
	var buf bytes.Buffer
	if err := RenderChecks(&buf, crs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "checks passed") || !strings.Contains(out, "missing") {
		t.Fatalf("render output incomplete:\n%s", out)
	}
}

// TestCheckOnQuickScale documents how many acceptance bands already
// hold at the fast test scale; the full-scale run is the real gate,
// but a majority must hold even here.
func TestCheckOnQuickScale(t *testing.T) {
	results, err := RunExperiments(context.Background(), sharedCtx, Experiments(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	crs := Check(results)
	pass, total := Passed(crs)
	if pass < total*6/10 {
		for _, c := range crs {
			if !c.Pass {
				t.Logf("failing: %s/%s measured %v band [%v,%v]",
					c.Experiment, c.Metric, c.Measured, c.Lo, c.Hi)
			}
		}
		t.Fatalf("only %d/%d checks pass at quick scale", pass, total)
	}
	t.Logf("quick scale: %d/%d checks pass", pass, total)
}
