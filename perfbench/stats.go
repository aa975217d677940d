package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 500 samples is the 5th-largest sample, a number
// that moves with every outlier.
const minTail = 10

// rank is the 1-based order statistic ⌈p·n⌉ clamped to [1, n], the
// convention stats.Sketch and cmd/reprobench use, so benchmark and
// daemon quantiles name the same sample.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	return min(max(r, 1), n)
}

// quantile returns the p-quantile of an ascending sample by rank. It
// returns NaN for an empty sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailOK reports whether the p-quantile of n samples has at least
// minTail samples beyond it.
func tailOK(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// dist is a latency sample kept for order statistics.
type dist struct{ sorted []float64 }

func newDist(xs []float64) dist {
	s := slices.Clone(xs)
	slices.Sort(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// q is the p-quantile; it is an error to ask for a tail the sample
// cannot support.
func (d dist) q(p float64) (float64, error) {
	if p > 0.5 && !tailOK(d.n(), p) {
		return 0, fmt.Errorf("p%g over %d samples has fewer than %d beyond it", 100*p, d.n(), minTail)
	}
	if d.n() == 0 {
		return 0, fmt.Errorf("empty sample")
	}
	return quantile(d.sorted, p), nil
}

// tailP is the highest of the given percentiles that has minTail
// samples beyond it, or 0 when none has.
func (d dist) tailP(ps ...float64) float64 {
	for _, p := range ps {
		if tailOK(d.n(), p) {
			return p
		}
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the rank-convention median of an unsorted sample.
func median(xs []float64) float64 { return newDist(xs).sorted[rank(len(xs), 0.5)-1] }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return nameRE.MatchString(s) }

// metric is one reported figure. N is the number of samples behind a
// timing (0 for counts and figures that are not sample statistics).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// metrics collects a run's figures in report order.
type metrics struct {
	list  []metric
	index map[string]int
}

// add records a figure; it panics on a name the report format cannot
// carry, which only a typo in this package can produce.
func (m *metrics) add(name, unit string, v float64, n int, note string) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	if m.index == nil {
		m.index = make(map[string]int)
	}
	mt := metric{Name: name, Unit: unit, Value: v, N: n, Note: note}
	if i, ok := m.index[name]; ok {
		m.list[i] = mt
		return
	}
	m.index[name] = len(m.list)
	m.list = append(m.list, mt)
}

func (m *metrics) get(name string) (metric, bool) {
	i, ok := m.index[name]
	if !ok {
		return metric{}, false
	}
	return m.list[i], true
}

// addLatency records the median and the highest supported tail of a
// latency sample in milliseconds, under prefix_p50_ms and prefix_pNN_ms.
func (m *metrics) addLatency(prefix string, xsMS []float64, tails ...float64) {
	d := newDist(xsMS)
	if d.n() == 0 {
		return
	}
	p50, _ := d.q(0.5)
	m.add(prefix+"p50_ms", "ms", p50, d.n(), "")
	if p := d.tailP(tails...); p > 0 {
		v, _ := d.q(p)
		m.add(fmt.Sprintf("%sp%g_ms", prefix, 100*p), "ms", v, d.n(),
			fmt.Sprintf("%d beyond", d.n()-rank(d.n(), p)))
	}
}
