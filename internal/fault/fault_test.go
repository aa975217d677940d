package fault

import (
	"context"
	"errors"
	"testing"
)

func TestHitNoPlanIsNil(t *testing.T) {
	t.Parallel()
	if err := Hit(context.Background(), "anything"); err != nil {
		t.Fatalf("Hit with no plan = %v, want nil", err)
	}
	if err := HitKey(context.Background(), "anything", "k"); err != nil {
		t.Fatalf("HitKey with no plan = %v, want nil", err)
	}
}

func TestErrorRuleFiresOnExactHit(t *testing.T) {
	t.Parallel()
	ctx := With(context.Background(), NewPlan(Rule{Site: "s", Hit: 3, Kind: Error}))
	for i := 1; i <= 5; i++ {
		err := Hit(ctx, "s")
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
	t.Parallel()
	ctx := With(context.Background(), NewPlan(Rule{Site: "s", Kind: Error}))
	for i := 0; i < 3; i++ {
		if err := Hit(ctx, "s"); err == nil {
			t.Fatalf("call %d: want injected error", i)
		}
	}
}

func TestPanicRule(t *testing.T) {
	t.Parallel()
	ctx := With(context.Background(), NewPlan(Rule{Site: "p", Hit: 1, Kind: Panic}))
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
	Hit(ctx, "p")
	t.Fatal("Hit did not panic")
}

func TestUnarmedSiteUnaffected(t *testing.T) {
	t.Parallel()
	ctx := With(context.Background(), NewPlan(Rule{Site: "s", Hit: 1, Kind: Error}))
	if err := Hit(ctx, "other"); err != nil {
		t.Fatalf("unarmed site returned %v", err)
	}
}

// TestPlansArePerContext: two contexts armed with their own plans keep
// their own hit counts, and a context derived from an armed one shares
// its plan while its parent's siblings see none.
func TestPlansArePerContext(t *testing.T) {
	t.Parallel()
	a := With(context.Background(), NewPlan(Rule{Site: "s", Hit: 2, Kind: Error}))
	b := With(context.Background(), NewPlan(Rule{Site: "s", Hit: 1, Kind: Error}))
	if err := Hit(a, "s"); err != nil {
		t.Fatalf("a hit 1 = %v, want nil", err)
	}
	if err := Hit(b, "s"); err == nil {
		t.Fatal("b hit 1 = nil: b's count was advanced by a's hit")
	}
	child, cancel := context.WithCancel(a)
	defer cancel()
	if err := Hit(child, "s"); err == nil {
		t.Fatal("a's hit 2, reached through a derived context, = nil")
	}
	if err := Hit(context.Background(), "s"); err != nil {
		t.Fatalf("unarmed context = %v, want nil", err)
	}
}

// TestNilPlanHit: components without a context hold their plan
// directly; a nil plan arms nothing.
func TestNilPlanHit(t *testing.T) {
	t.Parallel()
	var p *Plan
	if err := p.Hit("s"); err != nil {
		t.Fatalf("nil plan Hit = %v, want nil", err)
	}
	if err := NewPlan(Rule{Site: "s", Hit: 1, Kind: Error}).Hit("s"); err == nil {
		t.Fatal("armed plan's direct Hit = nil, want the injected error")
	}
}

func TestHitKeyAimsAtOneKey(t *testing.T) {
	t.Parallel()
	ctx := With(context.Background(), NewPlan(Rule{Site: "s@b", Hit: 1, Kind: Error}))
	if err := HitKey(ctx, "s", "a"); err != nil {
		t.Fatalf("HitKey(s, a) = %v, want nil: the rule is aimed at key b", err)
	}
	if err := HitKey(ctx, "s", "b"); err == nil {
		t.Fatal("HitKey(s, b) = nil, want the injected error")
	}
	ctx = With(context.Background(), NewPlan(Rule{Site: "s", Hit: 2, Kind: Error}))
	if err := HitKey(ctx, "s", "a"); err != nil {
		t.Fatalf("first HitKey = %v, want nil", err)
	}
	if err := HitKey(ctx, "s", "b"); err == nil {
		t.Fatal("second HitKey = nil, want the site-wide rule to fire on any key")
	}
}
