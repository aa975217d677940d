package cluster

import (
	"slices"

	"repro/internal/trace"
)

// placeIndex accelerates placement over a fixed machine park so that
// scheduling is sublinear in the machine count. It keeps one
// lazily-deleted max-heap of (score, machine) entries per CPU
// capacity class:
//
//   - Entries carry the machine's version at push time; any mutation
//     of a machine's free capacity or up/down state bumps the version
//     (idxUpdate), turning older entries stale. Stale entries are
//     discarded when popped, so no O(heap) deletion ever happens.
//   - Every up machine has exactly one fresh entry, pushed with the
//     exact score scoreOf computes — the same float64 expression the
//     reference scan evaluates, so the argmax is bit-identical.
//   - The heap orders by (score desc, machine index asc), which is
//     precisely the reference scan's "first machine with the maximal
//     score" tie-break.
//   - A class heap is compacted once it exceeds a deterministic
//     multiple of the class size, so the rebuild schedule depends only
//     on the event sequence, never on wall-clock or memory pressure.
//
// Random placement bypasses the scored heaps entirely (it must
// consume the RNG exactly like the reference path) but still uses the
// per-class eligibility lists to skip machines below a task's
// MinCPUClass constraint during preemption.
type placeIndex struct {
	caps    []float64 // distinct machine CPU capacities, ascending
	classes []pclass  // one per capacity, same order as caps
	classOf []int32   // machine index -> class index
	ver     []uint32  // machine index -> current entry version
	scratch []pentry  // reused pop stash for classBest

	// Change log for schedulePending's change-stamped retries: gen
	// counts idxUpdate calls, and changed[k%len(changed)] is the
	// machine the k-th one touched, so the last len(machines) changes
	// are always on hand. retry is the reused candidate list.
	gen     int64
	changed []int32
	retry   []int32
}

type pclass struct {
	members  []int32 // machine indices in this class, ascending
	eligible []int32 // machines with capacity >= this class's, ascending
	heap     []pentry
}

// pentry is one heap entry: a machine's placement score at version
// ver. 16 bytes, kept small on purpose — compaction and sift costs
// are dominated by moving these.
type pentry struct {
	score float64
	idx   int32
	ver   uint32
}

// entryBefore orders the class heaps: best score first, ties to the
// lowest machine index (the reference scan's strict-> semantics).
func entryBefore(a, b pentry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.idx < b.idx
}

func heapPushEntry(h *[]pentry, e pentry) {
	*h = append(*h, e)
	hs := *h
	i := len(hs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryBefore(hs[i], hs[p]) {
			break
		}
		hs[i], hs[p] = hs[p], hs[i]
		i = p
	}
}

func heapPopEntry(h *[]pentry) pentry {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	*h = hs[:n]
	hs = hs[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && entryBefore(hs[r], hs[l]) {
			best = r
		}
		if !entryBefore(hs[best], hs[i]) {
			break
		}
		hs[i], hs[best] = hs[best], hs[i]
		i = best
	}
	return top
}

// newPlaceIndex builds the index for the sim's machine park. All
// machines start up with full capacity, so every machine gets one
// fresh entry at version 0.
func newPlaceIndex(sm *sim) *placeIndex {
	n := len(sm.machines)
	p := &placeIndex{classOf: make([]int32, n), ver: make([]uint32, n), changed: make([]int32, n)}
	for _, ms := range sm.machines {
		if !slices.Contains(p.caps, ms.m.CPU) {
			p.caps = append(p.caps, ms.m.CPU)
		}
	}
	slices.Sort(p.caps)
	p.classes = make([]pclass, len(p.caps))
	for i, ms := range sm.machines {
		ci, _ := slices.BinarySearch(p.caps, ms.m.CPU)
		p.classOf[i] = int32(ci)
		p.classes[ci].members = append(p.classes[ci].members, int32(i))
	}
	// eligible[ci] is the ascending union of classes ci..top, built
	// top-down so each list is a merge of the class below's list.
	for ci := len(p.classes) - 1; ci >= 0; ci-- {
		if ci == len(p.classes)-1 {
			p.classes[ci].eligible = p.classes[ci].members
			continue
		}
		p.classes[ci].eligible = mergeAscending(p.classes[ci].members, p.classes[ci+1].eligible)
	}
	for i, ms := range sm.machines {
		ci := p.classOf[i]
		heapPushEntry(&p.classes[ci].heap, pentry{score: sm.scoreOf(ms), idx: int32(i)})
	}
	return p
}

func mergeAscending(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// eligible returns the machine indices (ascending) whose CPU capacity
// satisfies minClass, or nil when no class does.
func (p *placeIndex) eligible(minClass float64) []int32 {
	ci, _ := slices.BinarySearch(p.caps, minClass)
	if ci >= len(p.classes) {
		return nil
	}
	return p.classes[ci].eligible
}

// idxUpdate refreshes machine mi's index entry after any change to its
// free capacity, running set or up/down state, and logs mi as changed.
// The version bump invalidates the old entry; a fresh one is pushed
// only while the machine is up, so down machines simply vanish from
// the heaps.
func (sm *sim) idxUpdate(mi int) {
	p := sm.pidx
	if p == nil {
		return
	}
	p.ver[mi]++
	p.changed[p.gen%int64(len(p.changed))] = int32(mi)
	p.gen++
	ms := sm.machines[mi]
	if ms.down {
		return
	}
	cl := &p.classes[p.classOf[mi]]
	heapPushEntry(&cl.heap, pentry{score: sm.scoreOf(ms), idx: int32(mi), ver: p.ver[mi]})
	if len(cl.heap) > 4*len(cl.members)+16 {
		sm.idxCompact(cl)
	}
}

// idxCompact rebuilds a class heap from its members, dropping the
// stale entries that lazy deletion accumulates.
func (sm *sim) idxCompact(cl *pclass) {
	cl.heap = cl.heap[:0]
	for _, mi := range cl.members {
		ms := sm.machines[mi]
		if ms.down {
			continue
		}
		heapPushEntry(&cl.heap, pentry{score: sm.scoreOf(ms), idx: mi, ver: sm.pidx.ver[mi]})
	}
}

// placeIndexed finds the best feasible machine across the classes the
// task's MinCPUClass admits: maximal score, ties to the lowest global
// machine index — exactly the reference scan's choice.
func (sm *sim) placeIndexed(t *trace.Task) int {
	p := sm.pidx
	best := int32(-1)
	var bestScore float64
	examined := 0
	ci, _ := slices.BinarySearch(p.caps, t.MinCPUClass)
	for ; ci < len(p.classes); ci++ {
		mi, score, n := sm.classBest(&p.classes[ci], t)
		examined += n
		if mi >= 0 && (best < 0 || score > bestScore || (score == bestScore && mi < best)) {
			best, bestScore = mi, score
		}
	}
	sm.met.scans.Add(int64(examined))
	if best < 0 {
		return -1
	}
	return int(best)
}

// classBest pops the class heap until the best-scoring fresh machine
// that fits t surfaces. Fresh entries (feasible or not) are pushed
// back afterwards, so the heap keeps indexing machines that merely
// lacked room for this particular task; stale entries are dropped for
// good.
func (sm *sim) classBest(cl *pclass, t *trace.Task) (int32, float64, int) {
	p := sm.pidx
	stash := p.scratch[:0]
	found := int32(-1)
	var foundScore float64
	examined := 0
	for len(cl.heap) > 0 {
		e := heapPopEntry(&cl.heap)
		if e.ver != p.ver[e.idx] {
			continue // stale: superseded or machine down
		}
		examined++
		ms := sm.machines[e.idx]
		if ms.freeCPU < t.CPUReq || ms.freeMem < t.MemReq {
			stash = append(stash, e)
			continue
		}
		found, foundScore = e.idx, e.score
		stash = append(stash, e)
		break
	}
	for _, e := range stash {
		heapPushEntry(&cl.heap, e)
	}
	p.scratch = stash[:0]
	return found, foundScore, examined
}

// retryChanged repeats a pending task's failed try on the machines the
// last `since` idxUpdates touched (0 < since < len(machines)). Every
// other machine is in the state in which the previous try found it
// infeasible and not preemptable for t, so searching only the changed
// ones in ascending index order — best score, ties to the lowest
// index, then tryPreempt in turn — returns what a full place +
// preemptFor would, with the same evictions.
func (sm *sim) retryChanged(now int64, t *trace.Task, since int64) int {
	p := sm.pidx
	cand := p.retry[:0]
	for k := p.gen - since; k < p.gen; k++ {
		cand = append(cand, p.changed[k%int64(len(p.changed))])
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)
	p.retry = cand
	sm.met.scans.Add(int64(len(cand)))

	best := -1
	var bestScore float64
	for _, i := range cand {
		ms := sm.machines[i]
		if ms.down || ms.m.CPU < t.MinCPUClass || ms.freeCPU < t.CPUReq || ms.freeMem < t.MemReq {
			continue
		}
		if score := sm.scoreOf(ms); best < 0 || score > bestScore {
			best, bestScore = int(i), score
		}
	}
	if best >= 0 || !sm.cfg.Preemption {
		return best
	}
	for _, i := range cand {
		if sm.tryPreempt(now, t, int(i)) {
			return int(i)
		}
	}
	return -1
}
