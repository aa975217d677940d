// Package fault is a deterministic chaos-injection seam for the
// experiment pipeline. Production code declares named fault sites
// (fault.Hit("core.build.sim")); tests install a Plan that injects an
// error, a panic, or a delay at a chosen hit of a chosen site. With no
// plan installed the seam costs one atomic pointer load, so the sites
// can stay in shipping code.
//
// Determinism: a Plan triggers on exact (site, hit-count) pairs, and
// RandomPlan derives those pairs from an rng seed, so a chaos run is
// exactly reproducible from its seed — the same property the rest of
// the pipeline guarantees for its outputs.
package fault

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Kind selects what an injected fault does at its site.
type Kind int

const (
	// Error makes Hit return an *InjectedError.
	Error Kind = iota
	// Panic makes Hit panic with an *InjectedPanic value.
	Panic
	// Delay makes Hit sleep for Rule.Delay, then return nil.
	Delay
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Rule arms one injection: the Hit'th call (1-based) to fault.Hit(Site)
// triggers Kind. Hit <= 0 means "every call".
type Rule struct {
	Site  string
	Hit   int64
	Kind  Kind
	Delay time.Duration
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

// Plan holds armed rules plus per-site hit counters. A Plan is safe for
// concurrent use; counters advance atomically per Hit call.
type Plan struct {
	mu    sync.Mutex
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
		rs := p.rules[site]
		slices.SortStableFunc(rs, func(a, b Rule) int { return cmp.Compare(a.Hit, b.Hit) })
	}
	return p
}

// RandomPlan derives a deterministic plan from a seed: for each site it
// picks, with probability prob, one fault of a random kind (Error or
// Panic) at a random hit in [1, maxHit]. Identical (seed, sites, prob,
// maxHit) always produce the identical plan.
func RandomPlan(seed uint64, sites []string, prob float64, maxHit int64) *Plan {
	s := rng.New(seed).Child("fault.plan")
	var rules []Rule
	for _, site := range sites {
		if s.Float64() >= prob {
			continue
		}
		kind := Error
		if s.Bool(0.5) {
			kind = Panic
		}
		rules = append(rules, Rule{
			Site: site,
			Hit:  1 + s.Int64N(maxHit),
			Kind: kind,
		})
	}
	return NewPlan(rules...)
}

// Rules returns a copy of the plan's armed rules, for logging.
func (p *Plan) Rules() []Rule {
	var out []Rule
	p.mu.Lock()
	defer p.mu.Unlock()
	var sites []string
	for site := range p.rules {
		sites = append(sites, site)
	}
	slices.Sort(sites)
	for _, site := range sites {
		out = append(out, p.rules[site]...)
	}
	return out
}

// hit advances the site counter and fires the matching rule, if any.
func (p *Plan) hit(site string) error {
	c, ok := p.hits[site]
	if !ok {
		return nil
	}
	n := c.Add(1)
	var fire *Rule
	p.mu.Lock()
	for i := range p.rules[site] {
		r := &p.rules[site][i]
		if r.Hit == n || r.Hit <= 0 {
			fire = r
			break
		}
	}
	p.mu.Unlock()
	if fire == nil {
		return nil
	}
	switch fire.Kind {
	case Panic:
		panic(&InjectedPanic{Site: site, Hit: n})
	case Delay:
		time.Sleep(fire.Delay)
		return nil
	default:
		return &InjectedError{Site: site, Hit: n}
	}
}

// active is the installed global plan; nil means chaos is off and Hit
// is a single atomic load.
var active atomic.Pointer[Plan]

// Enable installs p as the process-wide plan and returns a function
// restoring the previous plan (use in tests: defer fault.Enable(p)()).
func Enable(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Disable removes any installed plan.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is currently installed.
func Enabled() bool { return active.Load() != nil }

// Hit marks a named fault site. It returns a non-nil error when an
// Error rule fires, panics when a Panic rule fires, sleeps when a
// Delay rule fires, and is a near-free no-op otherwise.
func Hit(site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(site)
}

// HitKey marks a fault site that acts on one of many keys: it counts as
// a hit of site and then of site+"@"+key, so a plan can aim a rule at
// every key (Site: site) or at a single one (Site: site+"@"+key).
func HitKey(site, key string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	if err := p.hit(site); err != nil {
		return err
	}
	return p.hit(site + "@" + key)
}
