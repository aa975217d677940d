package fault

import (
	"errors"
	"testing"
	"time"
)

func TestHitNoPlanIsNil(t *testing.T) {
	Disable()
	if err := Hit("anything"); err != nil {
		t.Fatalf("Hit with no plan = %v, want nil", err)
	}
	if Enabled() {
		t.Fatal("Enabled() = true with no plan")
	}
}

func TestErrorRuleFiresOnExactHit(t *testing.T) {
	restore := Enable(NewPlan(Rule{Site: "s", Hit: 3, Kind: Error}))
	defer restore()
	for i := 1; i <= 5; i++ {
		err := Hit("s")
		if i == 3 {
			var inj *InjectedError
			if !errors.As(err, &inj) {
				t.Fatalf("hit %d: err = %v, want *InjectedError", i, err)
			}
			if inj.Site != "s" || inj.Hit != 3 {
				t.Fatalf("hit %d: injected = %+v", i, inj)
			}
		} else if err != nil {
			t.Fatalf("hit %d: err = %v, want nil", i, err)
		}
	}
}

func TestHitZeroFiresEveryCall(t *testing.T) {
	restore := Enable(NewPlan(Rule{Site: "s", Kind: Error}))
	defer restore()
	for i := 0; i < 3; i++ {
		if err := Hit("s"); err == nil {
			t.Fatalf("call %d: want injected error", i)
		}
	}
}

func TestPanicRule(t *testing.T) {
	restore := Enable(NewPlan(Rule{Site: "p", Hit: 1, Kind: Panic}))
	defer restore()
	defer func() {
		r := recover()
		ip, ok := r.(*InjectedPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *InjectedPanic", r, r)
		}
		if ip.Site != "p" || ip.Hit != 1 {
			t.Fatalf("injected panic = %+v", ip)
		}
	}()
	Hit("p")
	t.Fatal("Hit did not panic")
}

func TestDelayRule(t *testing.T) {
	restore := Enable(NewPlan(Rule{Site: "d", Hit: 1, Kind: Delay, Delay: 10 * time.Millisecond}))
	defer restore()
	start := time.Now()
	if err := Hit("d"); err != nil {
		t.Fatalf("delay rule returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("delay rule slept %v, want >= 10ms", elapsed)
	}
}

func TestUnarmedSiteUnaffected(t *testing.T) {
	restore := Enable(NewPlan(Rule{Site: "s", Hit: 1, Kind: Error}))
	defer restore()
	if err := Hit("other"); err != nil {
		t.Fatalf("unarmed site returned %v", err)
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	sites := []string{"a", "b", "c", "d", "e", "f"}
	p1 := RandomPlan(42, sites, 0.5, 10).Rules()
	p2 := RandomPlan(42, sites, 0.5, 10).Rules()
	if len(p1) != len(p2) {
		t.Fatalf("rule counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, p1[i], p2[i])
		}
	}
	// A different seed should (for this site set) give a different plan.
	p3 := RandomPlan(43, sites, 0.5, 10).Rules()
	same := len(p1) == len(p3)
	if same {
		for i := range p1 {
			if p1[i] != p3[i] {
				same = false
				break
			}
		}
	}
	if same && len(p1) > 0 {
		t.Fatal("seeds 42 and 43 produced identical non-empty plans")
	}
}

func TestEnableRestores(t *testing.T) {
	Disable()
	restore := Enable(NewPlan(Rule{Site: "s", Hit: 1, Kind: Error}))
	if !Enabled() {
		t.Fatal("Enabled() = false after Enable")
	}
	restore()
	if Enabled() {
		t.Fatal("Enabled() = true after restore")
	}
}

func TestHitKeyAimsAtOneKey(t *testing.T) {
	restore := Enable(NewPlan(Rule{Site: "s@b", Hit: 1, Kind: Error}))
	defer restore()
	if err := HitKey("s", "a"); err != nil {
		t.Fatalf("HitKey(s, a) = %v, want nil: the rule is aimed at key b", err)
	}
	if err := HitKey("s", "b"); err == nil {
		t.Fatal("HitKey(s, b) = nil, want the injected error")
	}
	restore2 := Enable(NewPlan(Rule{Site: "s", Hit: 2, Kind: Error}))
	defer restore2()
	if err := HitKey("s", "a"); err != nil {
		t.Fatalf("first HitKey = %v, want nil", err)
	}
	if err := HitKey("s", "b"); err == nil {
		t.Fatal("second HitKey = nil, want the site-wide rule to fire on any key")
	}
}
