// Package fault is a deterministic chaos-injection seam for the
// experiment pipeline. Production code declares named fault sites
// (fault.Hit(ctx, "core.build.sim")); a test or a chaos-armed daemon
// attaches a Plan to the context its work runs under (fault.With), and
// the Plan injects an error or a panic at a chosen hit of a chosen
// site. A Plan belongs to one instance: two daemons, or two tests, in
// one process each see only their own. A context without a plan makes
// every site a no-op, so the sites can stay in shipping code.
//
// Determinism: a Plan triggers on exact (site, hit-count) pairs, so a
// chaos run is exactly reproducible from the rules it was armed with.
package fault

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
)

// Kind selects what an injected fault does at its site.
type Kind int

const (
	// Error makes Hit return an *InjectedError.
	Error Kind = iota
	// Panic makes Hit panic with an *InjectedPanic value.
	Panic
)

// Rule arms one injection: the Hit'th call (1-based) to Hit on Site
// triggers Kind. Hit <= 0 means "every call".
type Rule struct {
	Site string
	Hit  int64
	Kind Kind
}

// InjectedError is the error returned by Hit when an Error rule fires.
// Callers can errors.As on it to distinguish injected faults from real
// ones in test assertions.
type InjectedError struct {
	Site string
	Hit  int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected error at %s (hit %d)", e.Site, e.Hit)
}

// InjectedPanic is the value passed to panic when a Panic rule fires.
type InjectedPanic struct {
	Site string
	Hit  int64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.Site, p.Hit)
}

// Plan holds armed rules plus per-site hit counters. The rules are
// fixed at NewPlan; only the counters change, atomically per Hit call,
// so a Plan is safe for concurrent use. A nil *Plan arms nothing.
type Plan struct {
	rules map[string][]Rule // site -> rules, sorted by Hit
	hits  map[string]*atomic.Int64
}

// NewPlan builds a Plan from rules. Rules for the same site are all
// armed; each fires at most once (except Hit<=0 rules, which fire on
// every call).
func NewPlan(rules ...Rule) *Plan {
	p := &Plan{
		rules: make(map[string][]Rule),
		hits:  make(map[string]*atomic.Int64),
	}
	for _, r := range rules {
		p.rules[r.Site] = append(p.rules[r.Site], r)
		if _, ok := p.hits[r.Site]; !ok {
			p.hits[r.Site] = new(atomic.Int64)
		}
	}
	for site := range p.rules {
		slices.SortStableFunc(p.rules[site], func(a, b Rule) int { return cmp.Compare(a.Hit, b.Hit) })
	}
	return p
}

// Hit advances site's counter and fires the matching rule, if any: it
// returns an *InjectedError for an Error rule and panics with an
// *InjectedPanic for a Panic rule. A nil plan, or a site it does not
// arm, returns nil. Components without a context (the checkpoint
// store) hold their plan and call this directly.
func (p *Plan) Hit(site string) error {
	if p == nil {
		return nil
	}
	c, ok := p.hits[site]
	if !ok {
		return nil
	}
	n := c.Add(1)
	for _, r := range p.rules[site] {
		if r.Hit != n && r.Hit > 0 {
			continue
		}
		if r.Kind == Panic {
			panic(&InjectedPanic{Site: site, Hit: n})
		}
		return &InjectedError{Site: site, Hit: n}
	}
	return nil
}

type planKey struct{}

// With returns a copy of ctx carrying p: every fault site reached
// under the returned context, or any context derived from it, consults
// p.
func With(ctx context.Context, p *Plan) context.Context {
	return context.WithValue(ctx, planKey{}, p)
}

// Hit marks a named fault site reached under ctx. It fires ctx's plan
// (see (*Plan).Hit) and is a no-op when ctx carries none.
func Hit(ctx context.Context, site string) error {
	p, _ := ctx.Value(planKey{}).(*Plan)
	return p.Hit(site)
}

// HitKey marks a fault site that acts on one of many keys: it counts as
// a hit of site and then of site+"@"+key, so a plan can aim a rule at
// every key (Site: site) or at a single one (Site: site+"@"+key).
func HitKey(ctx context.Context, site, key string) error {
	p, _ := ctx.Value(planKey{}).(*Plan)
	if err := p.Hit(site); err != nil {
		return err
	}
	return p.Hit(site + "@" + key)
}
