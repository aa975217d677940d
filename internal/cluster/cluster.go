// Package cluster implements a discrete-event simulator of the Google
// data-center scheduling model described in Section II of the paper:
// heterogeneous machines, a priority scheduler (high priority first,
// FCFS within a priority, preemption of lower-priority work), task
// failure/kill/loss injection with resubmission, and 5-minute usage
// sampling per machine.
//
// The simulator consumes the task workload produced by internal/synth
// (or any []trace.Task) and emits the event stream and per-machine
// usage series that the Section IV host-load analyses consume.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Policy selects the placement heuristic.
type Policy int

// Placement policies. Balanced (worst-fit) mirrors the paper's "use
// the best resources first ... reaching an approximate load balancing
// situation"; BestFit and Random exist for the ablation benches.
const (
	Balanced Policy = iota
	BestFit
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Balanced:
		return "balanced"
	case BestFit:
		return "best-fit"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// OutcomeMix is the probability of each terminal event for an
// execution attempt. The default reproduces the paper's completion
// statistics: 59.2% of completion events are abnormal, of which 50%
// fail and 30.7% are kills.
type OutcomeMix struct {
	Finish, Fail, Kill, Evict, Lost float64
}

// validate rejects negative probabilities and totals above 1 (the
// remainder, if any, is folded into Lost by drawOutcome's default arm,
// so a total below 1 is legal).
func (m OutcomeMix) validate() error {
	for _, p := range []float64{m.Finish, m.Fail, m.Kill, m.Evict, m.Lost} {
		if p < 0 {
			return fmt.Errorf("cluster: negative outcome probability %v", p)
		}
	}
	if total := m.Finish + m.Fail + m.Kill + m.Evict + m.Lost; total > 1+1e-9 {
		return fmt.Errorf("cluster: outcome probabilities sum to %v > 1", total)
	}
	return nil
}

// DefaultOutcomeMix returns the calibrated mix.
func DefaultOutcomeMix() OutcomeMix {
	return OutcomeMix{
		Finish: 0.425,
		Fail:   0.296, // 0.592 * 0.50
		Kill:   0.182, // 0.592 * 0.307
		Evict:  0.070,
		Lost:   0.027,
	}
}

// Config parameterises a simulation run.
type Config struct {
	Machines     []trace.Machine
	Horizon      int64 // seconds simulated
	SamplePeriod int64 // usage sampling period; 0 means 300 s (5 min)

	Placement  Policy
	Preemption bool // allow high-priority tasks to evict lower ones

	// ReferencePlacement routes place()/preemptFor() through the
	// original linear machine scan instead of the capacity-indexed
	// fast path. Debug flag: both paths produce byte-identical event
	// streams (asserted by TestReferencePlacementByteIdentical); the
	// flag exists so that equivalence stays independently testable.
	ReferencePlacement bool

	Outcomes OutcomeMix

	// Resubmission of failed/evicted tasks (step 6 of Fig 1).
	MaxRetries  int
	RetryDelay  int64   // seconds before a resubmission
	FailRetryP  float64 // probability a failed task is resubmitted
	EvictRetryP float64 // probability an evicted task is resubmitted

	// UsageNoise is the std-dev of the per-window multiplicative CPU
	// noise of each running task; this is the source of the Google
	// host-load jitter the paper measures in Fig 13.
	UsageNoise float64

	// BurstProb and BurstMax model rare machine-wide CPU demand bursts
	// (co-located antagonists, cron storms): with probability BurstProb
	// per machine per sampling window, every task's CPU demand in that
	// window is multiplied by a factor in (1.5, BurstMax). Bursts are
	// what push each machine's maximum observed CPU to its capacity
	// over a month-long trace (Fig 7a). Zero disables bursts.
	BurstProb float64
	BurstMax  float64

	// UpdateProb is the per-attempt probability that the user tunes the
	// task's constraints mid-run (Fig 1 step 3), emitting an UPDATE
	// event. Purely observational: the resource profile is unchanged.
	UpdateProb float64

	// Machine churn: machines fail with exponential inter-failure
	// times of mean ChurnMTBF seconds and stay offline for an
	// exponential downtime of mean ChurnDowntime seconds. A failing
	// machine evicts everything running on it (the real trace's
	// machine_events REMOVE rows). Zero MTBF disables churn.
	ChurnMTBF     int64
	ChurnDowntime int64

	// EmitUsage additionally records per-task UsageSamples (expensive;
	// intended for small traces and format round-trips).
	EmitUsage bool

	// Metrics, when non-nil, receives the run's operational counters
	// (events dispatched, machine scans, queue-depth samples, per-type
	// event counts). Purely observational: the simulation consumes no
	// randomness and takes no decisions based on it, so results are
	// byte-identical with or without a registry attached.
	Metrics *obs.Registry
}

// DefaultConfig returns the calibrated simulation parameters for the
// given machine park and horizon.
func DefaultConfig(machines []trace.Machine, horizon int64) Config {
	return Config{
		Machines:     machines,
		Horizon:      horizon,
		SamplePeriod: 300,
		Placement:    Balanced,
		Preemption:   true,
		Outcomes:     DefaultOutcomeMix(),
		MaxRetries:   2,
		RetryDelay:   30,
		FailRetryP:   0.55,
		EvictRetryP:  0.90,
		UsageNoise:   0.85,
		BurstProb:    0.001,
		BurstMax:     3.5,
		UpdateProb:   0.02,
	}
}

// MachineSeries holds one machine's sampled load signals. CPU and Mem
// are split by the paper's three priority groups; the total is the sum.
type MachineSeries struct {
	Machine trace.Machine

	CPUByGroup [3]*timeseries.Series // low / middle / high
	MemByGroup [3]*timeseries.Series

	MemAssigned *timeseries.Series
	PageCache   *timeseries.Series
	Running     *timeseries.Series // mean number of running tasks
}

// CPU returns the total CPU usage series (all priorities), normalised
// by nothing — divide by Machine.CPU for a relative load level.
func (m *MachineSeries) CPU() *timeseries.Series { return sumSeries(m.CPUByGroup[:]) }

// Mem returns the total consumed-memory series.
func (m *MachineSeries) Mem() *timeseries.Series { return sumSeries(m.MemByGroup[:]) }

// CPUGroups returns the usage of the groups at or above the given
// group (e.g. HighPriority → high only; MiddlePriority → mid+high).
func (m *MachineSeries) CPUGroups(min trace.PriorityGroup) *timeseries.Series {
	return sumSeries(m.CPUByGroup[int(min):])
}

// MemGroups is the memory analogue of CPUGroups.
func (m *MachineSeries) MemGroups(min trace.PriorityGroup) *timeseries.Series {
	return sumSeries(m.MemByGroup[int(min):])
}

func sumSeries(ss []*timeseries.Series) *timeseries.Series {
	if len(ss) == 0 {
		return nil
	}
	out := &timeseries.Series{
		Start:  ss[0].Start,
		Step:   ss[0].Step,
		Values: append([]float64(nil), ss[0].Values...),
	}
	for _, s := range ss[1:] {
		for i := range out.Values {
			out.Values[i] += s.Values[i]
		}
	}
	return out
}

// Stats aggregates run-level counters.
type Stats struct {
	TasksSubmitted  int
	Attempts        int // execution attempts (schedules)
	EventCounts     map[trace.EventType]int
	Preemptions     int
	NeverScheduled  int // tasks still pending at the horizon
	MachineFailures int // churn events (machines going offline)
}

// AbnormalFraction returns the share of terminal events that are
// abnormal (the paper reports 59.2%).
func (s Stats) AbnormalFraction() float64 {
	var term, abn int
	for e, n := range s.EventCounts {
		if e.Terminal() {
			term += n
			if e.Abnormal() {
				abn += n
			}
		}
	}
	if term == 0 {
		return 0
	}
	return float64(abn) / float64(term)
}

// MachineEvent is one churn transition (the machine_events ADD/REMOVE
// rows of the real trace).
type MachineEvent struct {
	Time    int64
	Machine int
	Up      bool // true = machine (re)joined, false = went offline
}

// Result is the simulator output.
type Result struct {
	Config        Config
	Events        []trace.TaskEvent
	Usage         []trace.UsageSample // only when Config.EmitUsage
	Machines      []*MachineSeries
	MachineEvents []MachineEvent     // churn transitions, if any
	Pending       *timeseries.Series // cluster-wide mean pending tasks
	Stats         Stats
}

// ---------------------------------------------------------------------------
// engine internals

type runningTask struct {
	task    *trace.Task
	machine int
	start   int64
	end     int64 // scheduled completion time
	outcome trace.EventType
	retries int
	// Per-attempt resource profile.
	cpuUse   float64 // mean CPU actually consumed
	memUse   float64 // consumed memory
	cacheUse float64
	updateAt int64 // pending UPDATE event time (0 = none)
	runIdx   int32 // position in machineState.running (swap-remove bookkeeping)
	live     bool  // not yet settled; false once evicted or completed
}

type pendingTask struct {
	task     *trace.Task
	retries  int
	seq      int64 // FCFS order within a priority
	enqueued int64 // when the task entered the pending queue
	// tried is the index change counter plus one as it stood before
	// the task's last failed try; 0 means never tried (see try).
	tried int64
}

type eventKind int

const (
	evArrive eventKind = iota
	evComplete
	evMachineDown
	evMachineUp
)

type simEvent struct {
	time    int64
	seq     int64
	kind    eventKind
	pend    pendingTask  // evArrive
	run     *runningTask // evComplete
	machine int          // evMachineDown / evMachineUp
}

// eventQueue is a 4-ary min-heap of simEvents ordered by (time, seq).
// It replaces container/heap: the concrete element type keeps push and
// pop free of the interface boxing that copies every simEvent through
// an `any` on both ends, and the flatter 4-ary layout halves the tree
// depth so a sift touches fewer cache lines. (time, seq) is a strict
// total order — seq is unique per event — so any correct heap yields
// the identical pop sequence and event replay stays byte-identical to
// the container/heap implementation it replaces.
type eventQueue struct {
	evs []simEvent
}

func eventBefore(a, b *simEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.evs) }

func (q *eventQueue) push(e simEvent) {
	q.evs = append(q.evs, e)
	i := len(q.evs) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(&q.evs[i], &q.evs[p]) {
			break
		}
		q.evs[i], q.evs[p] = q.evs[p], q.evs[i]
		i = p
	}
}

func (q *eventQueue) pop() simEvent {
	top := q.evs[0]
	n := len(q.evs) - 1
	q.evs[0] = q.evs[n]
	q.evs[n] = simEvent{} // drop the *runningTask reference
	q.evs = q.evs[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if eventBefore(&q.evs[c], &q.evs[best]) {
				best = c
			}
		}
		if !eventBefore(&q.evs[best], &q.evs[i]) {
			break
		}
		q.evs[i], q.evs[best] = q.evs[best], q.evs[i]
		i = best
	}
	return top
}

type machineState struct {
	m        trace.Machine
	freeCPU  float64 // unreserved CPU (requests)
	freeMem  float64
	running  []*runningTask // unordered; runIdx gives O(1) removal
	cacheAff float64        // per-machine page-cache affinity (drives Fig 7d bimodality)
	down     bool           // offline due to churn
}

func (ms *machineState) addRunning(rt *runningTask) {
	rt.runIdx = int32(len(ms.running))
	ms.running = append(ms.running, rt)
}

// removeRunning swap-deletes rt. Storage order is irrelevant to the
// results: every consumer that iterates ms.running sorts by a total
// order before acting (see tryPreempt, machineDown, finishAccounting).
func (ms *machineState) removeRunning(rt *runningTask) {
	last := len(ms.running) - 1
	moved := ms.running[last]
	ms.running[rt.runIdx] = moved
	moved.runIdx = rt.runIdx
	ms.running[last] = nil
	ms.running = ms.running[:last]
}

// simMetrics caches the registry metrics the event loop touches.
// Every field is nil when Config.Metrics is nil; the obs methods are
// nil-safe, so the hot path carries no "is observability on?" branch.
type simMetrics struct {
	events *obs.Counter // cluster.events_dispatched
	// scans counts machines examined during placement: full-scan
	// iterations on the reference/Random paths, index probes on the
	// indexed path.
	scans      *obs.Counter   // cluster.machine_scans
	queueDepth *obs.Histogram // cluster.queue_depth, sampled per dispatched event
}

func newSimMetrics(reg *obs.Registry) simMetrics {
	return simMetrics{
		events: reg.Counter("cluster.events_dispatched"),
		scans:  reg.Counter("cluster.machine_scans"),
		queueDepth: reg.Histogram("cluster.queue_depth",
			[]float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}),
	}
}

type sim struct {
	cfg      Config
	s        *rng.Stream
	noise    *rng.Stream
	met      simMetrics
	machines []*machineState
	pendingQ [trace.MaxPriority + 1][]pendingTask
	pendingN int
	events   eventQueue
	seq      int64
	pidx     *placeIndex // nil when Config.ReferencePlacement is set

	rtSlab  []runningTask  // bump-allocated backing storage for attempts
	rtFree  []*runningTask // recycled attempts (safe once their evComplete popped)
	victims []*runningTask // scratch for tryPreempt/machineDown

	out        []trace.TaskEvent
	machineEvs []MachineEvent
	usage      []trace.UsageSample
	series     []*MachineSeries
	cpuAcc     [][3]*timeseries.Accumulator
	memAcc     [][3]*timeseries.Accumulator
	assignAcc  []*timeseries.Accumulator
	cacheAcc   []*timeseries.Accumulator
	runningAcc []*timeseries.Accumulator
	pendAcc    *timeseries.Accumulator
	stats      Stats
}

// Simulate runs the workload through the cluster and returns the
// event stream, machine series and statistics. It is SimulateCtx with
// a background context, for callers that don't need cancellation.
func Simulate(cfg Config, tasks []trace.Task, s *rng.Stream) (*Result, error) {
	return SimulateCtx(context.Background(), cfg, tasks, s)
}

// newSim validates cfg, fills in its defaults and builds the machine
// park, accumulators and placement index: everything but the events.
func newSim(cfg Config, s *rng.Stream) (*sim, error) {
	if len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("cluster: no machines configured")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("cluster: horizon %d must be positive", cfg.Horizon)
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 300
	}
	if cfg.Outcomes == (OutcomeMix{}) {
		cfg.Outcomes = DefaultOutcomeMix()
	}
	if err := cfg.Outcomes.validate(); err != nil {
		return nil, err
	}

	sm := &sim{cfg: cfg, s: s.Child("sim"), noise: s.Child("noise"), met: newSimMetrics(cfg.Metrics)}
	sm.stats.EventCounts = make(map[trace.EventType]int)

	// Accumulator construction can only fail on a range/step the
	// validation above rejects, but a hand-built Config deserves an
	// error, not a process crash: collect the first failure and return
	// it after setup instead of panicking.
	var accErr error
	newAcc := func() *timeseries.Accumulator {
		a, err := timeseries.NewAccumulator(0, cfg.Horizon, cfg.SamplePeriod)
		if err != nil && accErr == nil {
			accErr = err
		}
		return a
	}
	nm := len(cfg.Machines)
	states := make([]machineState, nm) // one slab, not nm boxes
	sm.machines = make([]*machineState, 0, nm)
	sm.cpuAcc = make([][3]*timeseries.Accumulator, 0, nm)
	sm.memAcc = make([][3]*timeseries.Accumulator, 0, nm)
	sm.assignAcc = make([]*timeseries.Accumulator, 0, nm)
	sm.cacheAcc = make([]*timeseries.Accumulator, 0, nm)
	sm.runningAcc = make([]*timeseries.Accumulator, 0, nm)
	for i, m := range cfg.Machines {
		ms := &states[i]
		ms.m, ms.freeCPU, ms.freeMem = m, m.CPU, m.Memory
		// Bimodal page-cache affinity: some machines serve file-backed
		// workloads, most do not (Fig 7d).
		if sm.s.Bool(0.45) {
			ms.cacheAff = sm.s.Range(2.0, 5.0)
		} else {
			ms.cacheAff = sm.s.Range(0.1, 0.8)
		}
		sm.machines = append(sm.machines, ms)
		sm.cpuAcc = append(sm.cpuAcc, [3]*timeseries.Accumulator{newAcc(), newAcc(), newAcc()})
		sm.memAcc = append(sm.memAcc, [3]*timeseries.Accumulator{newAcc(), newAcc(), newAcc()})
		sm.assignAcc = append(sm.assignAcc, newAcc())
		sm.cacheAcc = append(sm.cacheAcc, newAcc())
		sm.runningAcc = append(sm.runningAcc, newAcc())
	}
	sm.pendAcc = newAcc()
	if accErr != nil {
		return nil, fmt.Errorf("cluster: accumulator setup: %w", accErr)
	}
	if !cfg.ReferencePlacement {
		sm.pidx = newPlaceIndex(sm)
	}
	return sm, nil
}

// SimulateCtx is Simulate with cooperative cancellation: the event
// loop polls ctx every few hundred events, so a cancelled or expired
// context aborts the simulation promptly with ctx's cause instead of
// running the horizon out.
func SimulateCtx(ctx context.Context, cfg Config, tasks []trace.Task, s *rng.Stream) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	sm, err := newSim(cfg, s)
	if err != nil {
		return nil, err
	}

	// Pre-size the hot-path buffers from the workload: the event heap
	// peaks near one entry per not-yet-completed task, and the output
	// stream is sized by eventCap.
	sm.events.evs = make([]simEvent, 0, len(tasks)+64)

	// Seed arrivals.
	arrivals := 0
	for i := range tasks {
		t := &tasks[i]
		if t.Submit >= cfg.Horizon {
			continue
		}
		sm.push(simEvent{time: t.Submit, kind: evArrive, pend: pendingTask{task: t}})
		arrivals++
	}
	sm.out = make([]trace.TaskEvent, 0, eventCap(sm.cfg, arrivals))

	// Seed machine churn.
	if cfg.ChurnMTBF > 0 && cfg.ChurnDowntime > 0 {
		churn := s.Child("churn")
		for mi := range sm.machines {
			t := int64(churn.ExpFloat64() * float64(cfg.ChurnMTBF))
			for t < cfg.Horizon {
				down := 1 + int64(churn.ExpFloat64()*float64(cfg.ChurnDowntime))
				sm.push(simEvent{time: t, kind: evMachineDown, machine: mi})
				if up := t + down; up < cfg.Horizon {
					sm.push(simEvent{time: up, kind: evMachineUp, machine: mi})
				}
				t += down + int64(churn.ExpFloat64()*float64(cfg.ChurnMTBF))
			}
		}
	}

	if err := sm.run(ctx); err != nil {
		return nil, err
	}
	return sm.result(), nil
}

// eventCap estimates the length of the event stream of arrivals tasks,
// so that emit does not regrow it on a calibrated run. Each attempt
// emits SUBMIT, SCHEDULE, a terminal event and, with UpdateProb, an
// UPDATE. A task makes 1 + q + ... + q^MaxRetries attempts on average,
// where q is the chance that its outcome is retried; the estimate sizes
// for at most three retries and leaves longer chains to append.
// Preemption evicts tasks beyond the outcome mix, hence 10% headroom:
// on QuickConfig seeds 1-4 the stream fills 90-94% of the estimate.
func eventCap(cfg Config, arrivals int) int {
	q := cfg.Outcomes.Fail*cfg.FailRetryP + cfg.Outcomes.Evict*cfg.EvictRetryP
	q = min(max(q, 0), 1)
	attempts, p := 1.0, 1.0
	for range min(cfg.MaxRetries, 3) {
		p *= q
		attempts += p
	}
	return int(1.1 * float64(arrivals) * attempts * (3 + cfg.UpdateProb))
}

func (sm *sim) push(e simEvent) {
	e.seq = sm.seq
	sm.seq++
	sm.events.push(e)
}

// newRunningTask returns a zeroed attempt from the pool. Attempts are
// recycled in complete(): each attempt owns exactly one evComplete
// event, so once that event pops, neither the event heap nor any
// machine's running list can still reference the struct.
func (sm *sim) newRunningTask() *runningTask {
	if n := len(sm.rtFree); n > 0 {
		rt := sm.rtFree[n-1]
		sm.rtFree = sm.rtFree[:n-1]
		*rt = runningTask{}
		return rt
	}
	if len(sm.rtSlab) == 0 {
		sm.rtSlab = make([]runningTask, 512)
	}
	rt := &sm.rtSlab[0]
	sm.rtSlab = sm.rtSlab[1:]
	return rt
}

func (sm *sim) emit(e trace.TaskEvent) {
	sm.out = append(sm.out, e)
	sm.stats.EventCounts[e.Type]++
}

// run drains the event heap. Cancellation and the "cluster.run" fault
// site are polled every 256 events so the hot path stays one branch
// wide; event processing itself is strictly deterministic, so the
// poll cadence never changes results — only how promptly an abort is
// noticed.
func (sm *sim) run(ctx context.Context) error {
	var polled int
	for sm.events.len() > 0 {
		if polled++; polled&255 == 0 {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			if err := fault.Hit(ctx, "cluster.run"); err != nil {
				return err
			}
		}
		e := sm.events.pop()
		if e.time >= sm.cfg.Horizon {
			break
		}
		sm.met.events.Add(1)
		switch e.kind {
		case evArrive:
			sm.arrive(e.time, e.pend)
		case evComplete:
			sm.complete(e.time, e.run)
		case evMachineDown:
			sm.machineDown(e.time, e.machine)
		case evMachineUp:
			sm.machineUp(e.time, e.machine)
		}
		sm.schedulePending(e.time)
		sm.met.queueDepth.Observe(float64(sm.pendingN))
	}
	// Tasks still running at the horizon contribute usage up to the
	// horizon; their accounting happens in finishAccounting.
	sm.finishAccounting()
	return nil
}

func (sm *sim) arrive(now int64, p pendingTask) {
	t := p.task
	sm.stats.TasksSubmitted++
	sm.emit(trace.TaskEvent{
		Time: now, JobID: t.JobID, TaskIndex: t.Index,
		Machine: -1, Type: trace.EventSubmit, Priority: t.Priority,
	})
	p.seq = sm.seq
	p.enqueued = now
	sm.pendingQ[t.Priority] = append(sm.pendingQ[t.Priority], p)
	sm.pendingN++
}

// schedulePending drains the pending queues highest priority first and
// in FCFS order within each priority. A task that cannot be placed
// (capacity or constraints) is skipped rather than blocking the queue:
// on a heterogeneous park a constrained task would otherwise convoy
// every peer behind it, which is not how the production scheduler
// behaves (constrained tasks pend individually).
//
// Each pending task gets one try per pass. Retries are change-stamped
// (see try): a task that already failed is skipped, or retried only on
// the machines changed since its last try, so after each event a
// saturated park no longer re-fails every pending task on every
// machine.
func (sm *sim) schedulePending(now int64) {
	for prio := trace.MaxPriority; prio >= trace.MinPriority; prio-- {
		q := sm.pendingQ[prio]
		if len(q) == 0 {
			continue
		}
		remain := q[:0]
		for _, p := range q {
			mi := sm.try(now, &p)
			if mi < 0 {
				remain = append(remain, p)
				continue
			}
			// Time-weighted pending occupancy (Fig 8b pending curve).
			sm.pendAcc.AddRange(p.enqueued, now, 1)
			sm.start(now, p, mi)
			sm.pendingN--
		}
		sm.pendingQ[prio] = remain
	}
}

// try places p, preempting if enabled, and returns the machine or -1.
// A failed try alters no machine except through idxUpdate (a
// preemption that evicts and still falls short), so it stays failed
// until some machine changes. With the index on and a scored policy,
// try therefore skips a task that saw no change since its last try,
// and retries one that saw fewer than len(machines) changes only on
// the changed machines (retryChanged); otherwise it runs the full
// place + preemptFor. Random draws from the RNG on every try and
// ReferencePlacement is the oracle, so both always take the full try.
func (sm *sim) try(now int64, p *pendingTask) int {
	if sm.pidx != nil && sm.cfg.Placement != Random {
		last := p.tried
		p.tried = sm.pidx.gen + 1
		if last > 0 {
			switch since := p.tried - last; {
			case since == 0:
				return -1
			case since < int64(len(sm.machines)):
				return sm.retryChanged(now, p.task, since)
			}
		}
	}
	mi := sm.place(p.task)
	if mi < 0 && sm.cfg.Preemption {
		mi = sm.preemptFor(now, p.task)
	}
	return mi
}

// scoreOf is the placement score of a machine: higher is better, ties
// break to the lowest machine index. Both expressions are machine
// properties only, so the placement index can maintain them
// incrementally; the reference and indexed paths call this one
// function so their floating-point arithmetic is bit-identical.
//   - Balanced: mean relative headroom (worst fit).
//   - BestFit: tightest absolute free capacity. (The pre-index code
//     also subtracted the task's own requests; that per-call constant
//     never changed the argmax, and dropping it makes the score a pure
//     machine property.)
func (sm *sim) scoreOf(ms *machineState) float64 {
	if sm.cfg.Placement == BestFit {
		return -(ms.freeCPU + ms.freeMem)
	}
	return (ms.freeCPU/ms.m.CPU + ms.freeMem/ms.m.Memory) / 2
}

// place finds a machine for the task per the placement policy, or -1.
// Random draws a uniform starting index and scans from it (the same
// code runs in both modes so the RNG stream stays aligned); Balanced
// and BestFit route through the capacity index unless
// Config.ReferencePlacement pins the original linear scan.
func (sm *sim) place(t *trace.Task) int {
	if sm.cfg.Placement == Random {
		return sm.placeRandom(t)
	}
	if sm.pidx == nil {
		return sm.placeReference(t)
	}
	return sm.placeIndexed(t)
}

func (sm *sim) placeRandom(t *trace.Task) int {
	n := len(sm.machines)
	checkFrom := sm.s.IntN(n)
	for k := 0; k < n; k++ {
		i := (checkFrom + k) % n
		ms := sm.machines[i]
		if ms.down || ms.m.CPU < t.MinCPUClass || ms.freeCPU < t.CPUReq || ms.freeMem < t.MemReq {
			continue
		}
		sm.met.scans.Add(int64(k + 1))
		return i
	}
	sm.met.scans.Add(int64(n))
	return -1
}

// placeReference is the original O(machines) scan, kept as the
// byte-identity oracle for the indexed path: first machine with the
// maximal score wins (strict >, so ties break to the lowest index).
func (sm *sim) placeReference(t *trace.Task) int {
	best := -1
	var bestScore float64
	for i, ms := range sm.machines {
		if ms.down || ms.m.CPU < t.MinCPUClass || ms.freeCPU < t.CPUReq || ms.freeMem < t.MemReq {
			continue
		}
		score := sm.scoreOf(ms)
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	sm.met.scans.Add(int64(len(sm.machines)))
	return best
}

// preemptFor tries to make room for a high-priority task by evicting
// strictly-lower-priority tasks from one machine. Returns the machine
// index, or -1 if no machine can be cleared. Machines are tried in
// index order in both modes; the index merely skips capacity classes
// below the task's constraint.
func (sm *sim) preemptFor(now int64, t *trace.Task) int {
	if sm.pidx == nil {
		for i := range sm.machines {
			if sm.tryPreempt(now, t, i) {
				return i
			}
		}
		return -1
	}
	for _, i := range sm.pidx.eligible(t.MinCPUClass) {
		if sm.tryPreempt(now, t, int(i)) {
			return int(i)
		}
	}
	return -1
}

// tryPreempt clears machine i for t if evicting its strictly-lower-
// priority work frees enough capacity. Victims go lowest priority
// first (FCFS ties by start then identity) until the task fits; the
// sort keeps victim choice deterministic regardless of how the
// running list is stored.
func (sm *sim) tryPreempt(now int64, t *trace.Task, i int) bool {
	ms := sm.machines[i]
	if ms.down || ms.m.CPU < t.MinCPUClass {
		return false
	}
	var cpuGain, memGain float64
	victims := sm.victims[:0]
	for _, rt := range ms.running {
		if rt.task.Priority < t.Priority {
			victims = append(victims, rt)
			cpuGain += rt.task.CPUReq
			memGain += rt.task.MemReq
		}
	}
	ok := false
	if ms.freeCPU+cpuGain >= t.CPUReq && ms.freeMem+memGain >= t.MemReq {
		slices.SortFunc(victims, func(a, b *runningTask) int {
			if a.task.Priority != b.task.Priority {
				return cmp.Compare(a.task.Priority, b.task.Priority)
			}
			if a.start != b.start {
				return cmp.Compare(a.start, b.start)
			}
			if a.task.JobID != b.task.JobID {
				return cmp.Compare(a.task.JobID, b.task.JobID)
			}
			return cmp.Compare(a.task.Index, b.task.Index)
		})
		for _, v := range victims {
			if ms.freeCPU >= t.CPUReq && ms.freeMem >= t.MemReq {
				break
			}
			sm.evict(now, v)
		}
		if ms.freeCPU >= t.CPUReq && ms.freeMem >= t.MemReq {
			sm.stats.Preemptions++
			ok = true
		}
	}
	sm.victims = victims[:0]
	return ok
}

// machineDown takes a machine offline, evicting everything on it.
func (sm *sim) machineDown(now int64, mi int) {
	ms := sm.machines[mi]
	if ms.down {
		return
	}
	ms.down = true
	sm.idxUpdate(mi) // invalidate: down machines have no index entry
	sm.stats.MachineFailures++
	sm.machineEvs = append(sm.machineEvs, MachineEvent{Time: now, Machine: mi, Up: false})
	victims := append(sm.victims[:0], ms.running...)
	slices.SortFunc(victims, func(a, b *runningTask) int {
		if a.task.JobID != b.task.JobID {
			return cmp.Compare(a.task.JobID, b.task.JobID)
		}
		return cmp.Compare(a.task.Index, b.task.Index)
	})
	for _, rt := range victims {
		sm.evict(now, rt)
	}
	sm.victims = victims[:0]
}

// machineUp returns a machine to service.
func (sm *sim) machineUp(now int64, mi int) {
	sm.machines[mi].down = false
	sm.machineEvs = append(sm.machineEvs, MachineEvent{Time: now, Machine: mi, Up: true})
	sm.idxUpdate(mi)
}

// evict terminates a running task early with an EVICT event.
func (sm *sim) evict(now int64, rt *runningTask) {
	rt.end = now
	rt.outcome = trace.EventEvict
	sm.settle(now, rt)
}

// reserve books t's requests on machine mi and refreshes its index
// entry; release is the inverse. All free-capacity mutations go
// through these two so the index can never go stale.
func (sm *sim) reserve(mi int, t *trace.Task) {
	ms := sm.machines[mi]
	ms.freeCPU -= t.CPUReq
	ms.freeMem -= t.MemReq
	sm.idxUpdate(mi)
}

func (sm *sim) release(mi int, t *trace.Task) {
	ms := sm.machines[mi]
	ms.freeCPU += t.CPUReq
	ms.freeMem += t.MemReq
	sm.idxUpdate(mi)
}

// start begins an execution attempt on machine mi.
func (sm *sim) start(now int64, p pendingTask, mi int) {
	t := p.task
	ms := sm.machines[mi]
	sm.reserve(mi, t)

	outcome, dur := sm.drawOutcome(t)
	rt := sm.newRunningTask()
	rt.task, rt.machine, rt.start, rt.end = t, mi, now, now+dur
	rt.outcome, rt.retries = outcome, p.retries
	rt.cpuUse = t.CPUReq * t.Busy
	rt.memUse = t.MemReq * sm.s.Range(0.60, 0.95)
	rt.cacheUse = t.MemReq * ms.cacheAff * sm.s.Range(0.5, 1.5)
	rt.live = true
	ms.addRunning(rt)

	sm.emit(trace.TaskEvent{
		Time: now, JobID: t.JobID, TaskIndex: t.Index,
		Machine: mi, Type: trace.EventSchedule, Priority: t.Priority,
	})
	sm.stats.Attempts++
	// Fig 1 step 3: the user may tune the task's constraints while it
	// runs. Draw a uniform point inside the attempt; the UPDATE is
	// emitted at settle time only if the attempt actually survived
	// that long (an early eviction must not leave an UPDATE after the
	// terminal event).
	if sm.cfg.UpdateProb > 0 && dur > 2 && sm.s.Bool(sm.cfg.UpdateProb) {
		rt.updateAt = now + 1 + sm.s.Int64N(dur-1)
	}
	sm.push(simEvent{time: rt.end, kind: evComplete, run: rt})
}

// drawOutcome picks the terminal event and the attempt duration.
func (sm *sim) drawOutcome(t *trace.Task) (trace.EventType, int64) {
	mix := sm.cfg.Outcomes
	u := sm.s.Float64()
	var outcome trace.EventType
	switch {
	case u < mix.Finish:
		outcome = trace.EventFinish
	case u < mix.Finish+mix.Fail:
		outcome = trace.EventFail
	case u < mix.Finish+mix.Fail+mix.Kill:
		outcome = trace.EventKill
	case u < mix.Finish+mix.Fail+mix.Kill+mix.Evict:
		outcome = trace.EventEvict
	default:
		outcome = trace.EventLost
	}
	dur := t.Duration
	switch outcome {
	case trace.EventFail:
		dur = int64(float64(t.Duration) * sm.s.Range(0.05, 0.95))
	case trace.EventKill:
		dur = int64(float64(t.Duration) * sm.s.Range(0.05, 1.0))
	case trace.EventEvict:
		dur = int64(float64(t.Duration) * sm.s.Range(0.10, 0.90))
	case trace.EventLost:
		dur = int64(float64(t.Duration) * sm.s.Range(0.01, 0.20))
	}
	if dur < 1 {
		dur = 1
	}
	return outcome, dur
}

// complete handles a completion event. Stale events for attempts that
// were already evicted settle nothing. Either way this attempt's only
// remaining reference just left the event heap, so the struct goes
// back to the pool.
func (sm *sim) complete(now int64, rt *runningTask) {
	if rt.live {
		sm.settle(now, rt)
	}
	sm.rtFree = append(sm.rtFree, rt)
}

// settle finalises an attempt: frees resources, emits the terminal
// event, accounts usage and possibly resubmits.
func (sm *sim) settle(now int64, rt *runningTask) {
	sm.machines[rt.machine].removeRunning(rt)
	rt.live = false
	sm.release(rt.machine, rt.task)

	if rt.updateAt > 0 && rt.updateAt < now && rt.updateAt < sm.cfg.Horizon {
		sm.emit(trace.TaskEvent{
			Time: rt.updateAt, JobID: rt.task.JobID, TaskIndex: rt.task.Index,
			Machine: rt.machine, Type: trace.EventUpdate, Priority: rt.task.Priority,
		})
	}
	sm.emit(trace.TaskEvent{
		Time: now, JobID: rt.task.JobID, TaskIndex: rt.task.Index,
		Machine: rt.machine, Type: rt.outcome, Priority: rt.task.Priority,
	})
	sm.account(rt, now)

	retryP := 0.0
	switch rt.outcome {
	case trace.EventFail:
		retryP = sm.cfg.FailRetryP
	case trace.EventEvict:
		retryP = sm.cfg.EvictRetryP
	}
	if retryP > 0 && rt.retries < sm.cfg.MaxRetries && sm.s.Bool(retryP) {
		resub := now + sm.cfg.RetryDelay
		if resub < sm.cfg.Horizon {
			sm.push(simEvent{time: resub, kind: evArrive,
				pend: pendingTask{task: rt.task, retries: rt.retries + 1}})
		}
	}
}

// account adds the attempt's usage over [rt.start, end) to the
// machine accumulators, window by window so per-window noise shows up
// in the host signal.
func (sm *sim) account(rt *runningTask, end int64) {
	if end > sm.cfg.Horizon {
		end = sm.cfg.Horizon
	}
	if end <= rt.start {
		return
	}
	mi := rt.machine
	g := int(trace.GroupOf(rt.task.Priority))
	step := sm.cfg.SamplePeriod
	cpu := sm.cpuAcc[mi][g]
	mem := sm.memAcc[mi][g]

	for t := rt.start; t < end; {
		winEnd := (t/step + 1) * step
		if winEnd > end {
			winEnd = end
		}
		frac := float64(winEnd-t) / float64(step)
		n := 1 + sm.cfg.UsageNoise*sm.noise.NormFloat64()
		if n < 0.05 {
			n = 0.05
		}
		n *= sm.burstFactor(mi, t/step)
		cpu.Add(t, rt.cpuUse*n*frac)
		mem.Add(t, rt.memUse*frac*(1+0.15*sm.noise.NormFloat64()))
		sm.assignAcc[mi].Add(t, rt.task.MemReq*frac)
		sm.cacheAcc[mi].Add(t, rt.cacheUse*frac)
		sm.runningAcc[mi].Add(t, frac)
		t = winEnd
	}

	if sm.cfg.EmitUsage {
		sm.usage = append(sm.usage, trace.UsageSample{
			Start: rt.start, End: end,
			JobID: rt.task.JobID, TaskIndex: rt.task.Index,
			Machine: mi, CPU: rt.cpuUse, MemUsed: rt.memUse,
			MemAssigned: rt.task.MemReq, PageCache: rt.cacheUse,
			Priority: rt.task.Priority,
		})
	}
}

// burstFactor returns the machine-wide CPU burst multiplier for one
// sampling window. It hashes (machine, window, seed) so every task on
// the machine sees the same factor in the same window regardless of
// accounting order — keeping the simulation deterministic without
// storing a machines x windows matrix.
func (sm *sim) burstFactor(machine int, window int64) float64 {
	if sm.cfg.BurstProb <= 0 || sm.cfg.BurstMax <= 1 {
		return 1
	}
	x := uint64(machine)<<40 ^ uint64(window) ^ sm.s.Seed()
	// splitmix64 finaliser.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	if u >= sm.cfg.BurstProb {
		return 1
	}
	// Map the sub-threshold draw to a factor in (1.5, BurstMax).
	return 1.5 + (sm.cfg.BurstMax-1.5)*(u/sm.cfg.BurstProb)
}

// finishAccounting settles tasks still running at the horizon (they
// contribute usage up to the horizon but emit no terminal event,
// exactly like the truncated real trace) and counts stranded pending
// tasks.
func (sm *sim) finishAccounting() {
	for _, ms := range sm.machines {
		// Deterministic order: accounting consumes the noise stream.
		// Sorting in place is fine — the run is over, so the swap-remove
		// bookkeeping no longer matters.
		slices.SortFunc(ms.running, func(a, b *runningTask) int {
			if a.task.JobID != b.task.JobID {
				return cmp.Compare(a.task.JobID, b.task.JobID)
			}
			return cmp.Compare(a.task.Index, b.task.Index)
		})
		for _, rt := range ms.running {
			sm.account(rt, sm.cfg.Horizon)
		}
	}
	for _, q := range sm.pendingQ {
		sm.stats.NeverScheduled += len(q)
		for _, p := range q {
			sm.pendAcc.AddRange(p.enqueued, sm.cfg.Horizon, 1)
		}
	}
}

// publishStats copies the run-level tallies into the configured
// registry once, after the event loop has drained (so the registry
// never sees a half-run snapshot).
func (sm *sim) publishStats() {
	reg := sm.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter("cluster.tasks_submitted").Add(int64(sm.stats.TasksSubmitted))
	reg.Counter("cluster.tasks_scheduled").Add(int64(sm.stats.Attempts))
	reg.Counter("cluster.preemptions").Add(int64(sm.stats.Preemptions))
	reg.Counter("cluster.never_scheduled").Add(int64(sm.stats.NeverScheduled))
	reg.Counter("cluster.machine_failures").Add(int64(sm.stats.MachineFailures))
	for typ, n := range sm.stats.EventCounts {
		reg.Counter("cluster.events." + typ.String()).Add(int64(n))
	}
}

func (sm *sim) result() *Result {
	sm.publishStats()
	res := &Result{
		Config:        sm.cfg,
		Events:        sm.out,
		Usage:         sm.usage,
		MachineEvents: sm.machineEvs,
		Pending:       sm.pendAcc.Series(),
		Stats:         sm.stats,
	}
	for i, ms := range sm.machines {
		s := &MachineSeries{Machine: ms.m}
		for g := 0; g < 3; g++ {
			s.CPUByGroup[g] = sm.cpuAcc[i][g].Series()
			s.MemByGroup[g] = sm.memAcc[i][g].Series()
		}
		// Physical clamp: a machine cannot consume beyond its CPU
		// capacity; demand bursts above it saturate (this is why the
		// paper sees per-machine maxima exactly at capacity, Fig 7a).
		clampGroups(s.CPUByGroup[:], ms.m.CPU)
		clampGroups(s.MemByGroup[:], ms.m.Memory)
		s.MemAssigned = sm.assignAcc[i].Series()
		clampSeries(s.MemAssigned, ms.m.Memory)
		s.PageCache = sm.cacheAcc[i].Series()
		clampSeries(s.PageCache, ms.m.PageCache)
		s.Running = sm.runningAcc[i].Series()
		res.Machines = append(res.Machines, s)
	}
	return res
}

// clampGroups scales the per-group series down proportionally wherever
// their sum exceeds cap.
func clampGroups(groups []*timeseries.Series, cap float64) {
	if len(groups) == 0 {
		return
	}
	n := len(groups[0].Values)
	for i := 0; i < n; i++ {
		var sum float64
		for _, g := range groups {
			sum += g.Values[i]
		}
		if sum > cap {
			scale := cap / sum
			for _, g := range groups {
				g.Values[i] *= scale
			}
		}
	}
}

func clampSeries(s *timeseries.Series, cap float64) {
	for i, v := range s.Values {
		if v > cap {
			s.Values[i] = cap
		}
	}
}
