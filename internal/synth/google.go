package synth

import (
	"cmp"
	"slices"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/trace"
)

// GoogleConfig parameterises the Google data-center workload model.
// The defaults are calibrated to the numbers the paper reports:
//
//   - ~552 jobs/hour with fairness 0.94 (Table I), min 36 / max 1421,
//   - the Fig 2 priority histogram over 12 levels,
//   - ~80 % of jobs shorter than 1000 s (Fig 3),
//   - ~55 % of tasks under 10 min, ~90 % under 1 h, ~94 % under 3 h,
//     a mean task length of several hours and a maximum of 29 days
//     (Fig 4: joint ratio ≈ 6/94),
//   - jobs that mostly hold one processor with small CPU/memory
//     footprints (Fig 6).
type GoogleConfig struct {
	Horizon     int64   // trace length in seconds
	JobsPerHour float64 // mean submission rate
	// MaxTasksPerJob caps map-reduce style jobs so scaled-down runs
	// stay tractable. 0 means the calibrated default (2000).
	MaxTasksPerJob int
	Arrival        ArrivalConfig

	// Busy window: the paper observes an organically busier period
	// (days 21-25 of the month, Fig 10) where demand rises without the
	// submission rate changing. Tasks submitted inside the window
	// [BusyFracStart, BusyFracEnd) of the horizon run hotter and batch
	// jobs fan out wider by BusyDemandFactor.
	BusyFracStart, BusyFracEnd float64
	BusyDemandFactor           float64

	// WarmStart seeds the trace with the long-running service tasks
	// that would already be resident at time 0 (M/G/infinity warm
	// start): service arrivals are drawn over the 29 days before the
	// trace and survivors enter at t=0 with their residual duration.
	// Without it a short simulation under-reports memory usage, because
	// the resident service population ramps for days.
	WarmStart bool
}

// DefaultGoogleConfig returns the calibration used for the paper
// reproduction at the given horizon (seconds).
func DefaultGoogleConfig(horizon int64) GoogleConfig {
	return GoogleConfig{
		Horizon:        horizon,
		JobsPerHour:    552,
		MaxTasksPerJob: 2000,
		// Days 21-25 of a 30-day trace.
		BusyFracStart:    0.70,
		BusyFracEnd:      0.83,
		BusyDemandFactor: 1.9,
		Arrival: ArrivalConfig{
			PerHour:     552,
			DiurnalAmp:  0.18,
			LogSigma:    0.17,
			SpikeProb:   0.01,
			SpikeFactor: 2.3,
			RampHours:   3,
		},
	}
}

// Job type mixture. Interactive jobs are the web-service requests the
// paper's introduction motivates; batch jobs are map-reduce style with
// many short tasks; service jobs are the long-running tail that gives
// the task-length distribution its 6/94 mass-count disparity.
const (
	pInteractive = 0.71
	pBatch       = 0.25
	pService     = 0.04
)

// Priority weights for jobs, from the Fig 2(a) histogram (units of
// 10^4 jobs; levels 8-12 are below the labelled resolution).
var googleJobPriorityWeights = []float64{
	16.0, 11.3, 17.0, 13.0, // low (1-4)
	0.9, 4.0, 4.7, 0.5, // middle (5-8)
	0.35, 0.25, 0.15, 0.1, // high (9-12)
}

// servicePriorityWeights skews long-running service jobs toward the
// middle/high levels ("production" priorities in the real trace).
var servicePriorityWeights = []float64{
	0.3, 0.3, 0.3, 0.3,
	0.8, 1, 1, 0.8,
	6, 5, 4, 3,
}

// Task-length distributions per job type (seconds).
var (
	interactiveLen = dist.Clamped{
		Dist: dist.Exponential{Rate: 1.0 / 280}, Lo: 5, Hi: 3600,
	}
	batchLen = dist.Clamped{
		Dist: dist.LogNormal{Mu: 6.2, Sigma: 1.0}, // median ~490 s
		Lo:   20, Hi: 6 * 3600,
	}
	// Long-running services: three bands spanning 3 h .. 29 d.
	serviceLen = dist.Mixture{Components: []dist.Component{
		{Weight: 0.45, Dist: dist.BoundedPareto{L: 3 * 3600, H: 86400, Alpha: 1.1}},
		{Weight: 0.33, Dist: dist.BoundedPareto{L: 86400, H: 7 * 86400, Alpha: 1.0}},
		{Weight: 0.22, Dist: dist.BoundedPareto{L: 7 * 86400, H: 29 * 86400, Alpha: 1.2}},
	}}
)

// Resource requests (normalised to the largest machine, as in the
// released trace).
var (
	googleCPUReq = dist.Clamped{
		Dist: dist.LogNormal{Mu: -4.4, Sigma: 0.6}, Lo: 0.002, Hi: 0.1,
	}
	googleMemReq = dist.Clamped{
		Dist: dist.LogNormal{Mu: -6.5, Sigma: 0.7}, Lo: 0.0005, Hi: 0.1,
	}
	// Services hold noticeably more memory.
	serviceMemReq = dist.Clamped{
		Dist: dist.LogNormal{Mu: -4.25, Sigma: 0.6}, Lo: 0.002, Hi: 0.15,
	}
)

// userPopulation is the Zipf user model: "each job corresponds to one
// user", with a few heavy users dominating submissions.
var userPopulation = dist.NewZipf(400, 1.3)

// Placement-constraint probabilities per job type (Section II: tasks
// carry customised constraints; Sharma et al. study their impact).
// Constrained tasks demand at least a mid-class (0.5) or top-class
// (1.0) CPU machine.
func sampleConstraint(s *rng.Stream, service bool) float64 {
	if service {
		switch {
		case s.Bool(0.10):
			return 1.0
		case s.Bool(0.30):
			return 0.5
		}
		return 0
	}
	if s.Bool(0.10) {
		return 0.5
	}
	return 0
}

// serviceTaskCount draws the replica count of a service job.
func serviceTaskCount(s *rng.Stream, cap int) int {
	n := 1 + s.IntN(12)
	if cap > 0 && n > cap {
		n = cap
	}
	return n
}

// CPU-busy fractions per job type: batch tasks run hot, interactive
// requests are moderate, long-running services idle on their CPU
// reservation while pinning memory — this asymmetry is what makes the
// simulated cluster's memory usage exceed its CPU usage (Fig 11 vs 12).
var (
	interactiveBusy = dist.Uniform{Lo: 0.40, Hi: 0.90}
	batchBusy       = dist.Uniform{Lo: 0.55, Hi: 1.00}
	serviceBusy     = dist.Uniform{Lo: 0.15, Hi: 0.50}
)

// batchTaskCount draws the number of tasks in a batch job: median
// around 8, heavy tail into the thousands so the task/job ratio
// reaches the trace's ~38.
func batchTaskCount(s *rng.Stream, cap int) int {
	var n int
	switch {
	case s.Bool(0.55):
		n = 2 + s.IntN(14) // small fan-out
	case s.Bool(0.75):
		n = 16 + s.IntN(112) // medium map-reduce
	default:
		// Heavy tail: hundreds to thousands of mappers.
		n = int(dist.BoundedPareto{L: 128, H: 8000, Alpha: 0.9}.Sample(s))
	}
	if cap > 0 && n > cap {
		n = cap
	}
	if n < 2 {
		n = 2
	}
	return n
}

// GenerateGoogleTasks generates the full task workload: every task
// carries its job, submission time, priority, resource request and
// intrinsic duration. Tasks are ordered by (Submit, JobID, Index).
//
// Generation writes each task once, in (JobID, Index) order: regular
// jobs take IDs 1..N in arrival order, and the warm-start service jobs
// take IDs from 2^40 and come last. A stable sort on Submit alone
// therefore yields the (Submit, JobID, Index) order. The sort is a
// counting sort whose count array grows with the Submit range, about
// the horizon, but never past one entry per task (see sortBySubmit).
func GenerateGoogleTasks(cfg GoogleConfig, s *rng.Stream) []trace.Task {
	return generateGoogleTasks(cfg, s).sortBySubmit()
}

// generateGoogleTasks draws the workload in generation order.
func generateGoogleTasks(cfg GoogleConfig, s *rng.Stream) *taskChunks {
	if cfg.Arrival.PerHour == 0 {
		cfg.Arrival = DefaultGoogleConfig(cfg.Horizon).Arrival
		cfg.Arrival.PerHour = cfg.JobsPerHour
	}
	arrivals := Arrivals(cfg.Arrival, cfg.Horizon, s.Child("arrivals"))
	body := s.Child("tasks")
	busyStart := int64(cfg.BusyFracStart * float64(cfg.Horizon))
	busyEnd := int64(cfg.BusyFracEnd * float64(cfg.Horizon))
	tasks := &taskChunks{}
	for jobIdx, submit := range arrivals {
		jobID := int64(jobIdx + 1)
		demand := 1.0
		if cfg.BusyDemandFactor > 1 && submit >= busyStart && submit < busyEnd {
			demand = cfg.BusyDemandFactor
		}
		u := body.Float64()
		switch {
		case u < pInteractive:
			makeGoogleTasks(tasks, body, &interactiveJob, jobID, submit, 1, demand, false)
		case u < pInteractive+pBatch:
			n := batchTaskCount(body, cfg.MaxTasksPerJob)
			if demand > 1 {
				n = int(float64(n) * demand)
				if cfg.MaxTasksPerJob > 0 && n > cfg.MaxTasksPerJob {
					n = cfg.MaxTasksPerJob
				}
			}
			makeGoogleTasks(tasks, body, &batchJob, jobID, submit, n, demand, false)
		default:
			n := serviceTaskCount(body, cfg.MaxTasksPerJob)
			makeGoogleTasks(tasks, body, &serviceJob, jobID, submit, n, demand, false)
		}
	}
	if cfg.WarmStart {
		warmServiceTasks(tasks, cfg, s.Child("warm"))
	}
	return tasks
}

// warmJobBase offsets the synthetic job IDs of warm-start service jobs
// so they never collide with regular arrivals.
const warmJobBase = int64(1) << 40

// warmServiceTasks draws the service jobs that arrived during the 29
// days before the trace and are still running at t=0, entering with
// their residual durations.
func warmServiceTasks(tasks *taskChunks, cfg GoogleConfig, s *rng.Stream) {
	const lookback = 29 * 86400
	serviceRate := cfg.Arrival.PerHour * pService // service jobs per hour
	arrivals := Arrivals(ArrivalConfig{PerHour: serviceRate}, lookback, s.Child("arrivals"))
	body := s.Child("tasks")
	for k, a := range arrivals {
		submit := a - lookback // negative: before the trace epoch
		n := serviceTaskCount(body, cfg.MaxTasksPerJob)
		makeGoogleTasks(tasks, body, &serviceJob, warmJobBase+int64(k), submit, n, 1, true)
	}
}

// jobKind is what a job's type fixes for its tasks: the priority
// histogram, the task-length, memory-request and CPU-busy
// distributions, and whether it is a long-running service.
type jobKind struct {
	prio    []float64
	length  dist.Dist
	mem     dist.Dist
	busy    dist.Dist
	service bool
}

var (
	interactiveJob = jobKind{googleJobPriorityWeights, interactiveLen, googleMemReq, interactiveBusy, false}
	batchJob       = jobKind{googleJobPriorityWeights, batchLen, googleMemReq, batchBusy, false}
	serviceJob     = jobKind{servicePriorityWeights, serviceLen, serviceMemReq, serviceBusy, true}
)

// makeGoogleTasks draws a job's n tasks and writes them to out. A warm
// task (submitted before the trace epoch) enters at t=0 with its
// residual duration, or not at all if it finished before the trace
// began; its draws are made either way, so the stream stays aligned.
func makeGoogleTasks(out *taskChunks, s *rng.Stream, kind *jobKind, jobID, submit int64, n int, demand float64, warm bool) {
	priority := s.Pick(kind.prio) + 1
	user := int(userPopulation.Sample(s))
	constraint := sampleConstraint(s, kind.service)
	for i := range n {
		d := int64(kind.length.Sample(s))
		if d < 1 {
			d = 1
		}
		b := kind.busy.Sample(s) * demand
		if b > 1 {
			b = 1
		}
		// Tasks within a job are submitted in a sequential order with
		// small staggers (Section III: "multiple tasks submitted in a
		// sequential order").
		stagger := int64(0)
		if i > 0 {
			stagger = int64(i) * int64(1+s.IntN(3))
		}
		cpu := googleCPUReq.Sample(s)
		mem := kind.mem.Sample(s)
		at := submit + stagger
		if warm {
			residual := at + d // time remaining past t=0
			if residual <= 0 {
				continue
			}
			at, d = 0, residual
		}
		*out.next() = trace.Task{
			JobID:       jobID,
			Index:       i,
			Submit:      at,
			Priority:    priority,
			User:        user,
			MinCPUClass: constraint,
			CPUReq:      cpu,
			MemReq:      mem,
			Busy:        b,
			Duration:    d,
		}
	}
}

// Chunk sizes of taskChunks, in tasks. The first chunk is small so a
// sparse workload (a few thousand tasks) does not pay for a full one;
// each next chunk doubles up to the fixed maximum.
const (
	firstChunk = 256
	maxChunk   = 8192
)

// taskChunks holds tasks in generation order. Each task is written
// once, into the last chunk; a full chunk stays where it is and a new
// one starts, so growing the workload never copies it.
type taskChunks struct {
	chunks [][]trace.Task // the last one is being filled
	n      int
}

// next returns the slot for the next task.
func (c *taskChunks) next() *trace.Task {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(c.chunks[last]), maxChunk)
		}
		c.chunks = append(c.chunks, make([]trace.Task, 0, size))
		last++
	}
	ch := c.chunks[last][:len(c.chunks[last])+1]
	c.chunks[last] = ch
	c.n++
	return &ch[len(ch)-1]
}

// sortBySubmit moves the tasks into one slice of exact size, stably
// ordered by Submit, and empties c. It is a counting sort: a pass
// counts the tasks per Submit bucket, the prefix sums give each
// bucket's first slot, and a second pass scatters every task to its
// slot, dropping each chunk once it is scattered.
//
// A bucket is one second wide while the Submit range is below the
// task count. On sparser workloads (a small park over a long horizon)
// buckets widen by powers of two until there are no more buckets than
// tasks, and an insertion sort then orders each bucket by Submit; a
// bucket holds about one task on average, and the sort is stable, so
// the result is the same.
func (c *taskChunks) sortBySubmit() []trace.Task {
	chunks, n := c.chunks, c.n
	*c = taskChunks{}
	if n == 0 {
		return nil
	}
	lo, hi := chunks[0][0].Submit, chunks[0][0].Submit
	for _, ch := range chunks {
		for i := range ch {
			lo, hi = min(lo, ch[i].Submit), max(hi, ch[i].Submit)
		}
	}
	shift := bucketShift(hi-lo, n)
	// next[k] counts bucket k's tasks, then holds its next free slot.
	next := make([]int, uint64(hi-lo)>>shift+1)
	for _, ch := range chunks {
		for i := range ch {
			next[(ch[i].Submit-lo)>>shift]++
		}
	}
	sum := 0
	for k, cnt := range next {
		next[k] = sum
		sum += cnt
	}
	out := make([]trace.Task, n)
	for j, ch := range chunks {
		for i := range ch {
			k := (ch[i].Submit - lo) >> shift
			out[next[k]] = ch[i]
			next[k]++
		}
		chunks[j] = nil
	}
	if shift > 0 {
		// next[k] is now the end of bucket k.
		start := 0
		for _, end := range next {
			insertionSortBySubmit(out[start:end])
			start = end
		}
	}
	return out
}

// bucketShift returns the least shift that leaves no more buckets of
// width 1<<shift over a Submit span than there are tasks.
func bucketShift(span int64, n int) int {
	shift := 0
	for uint64(span)>>shift >= uint64(n) {
		shift++
	}
	return shift
}

// insertionSortBySubmit stably sorts ts by Submit.
func insertionSortBySubmit(ts []trace.Task) {
	for i := 1; i < len(ts); i++ {
		if ts[i].Submit >= ts[i-1].Submit {
			continue
		}
		t := ts[i]
		j := i
		for ; j > 0 && ts[j-1].Submit > t.Submit; j-- {
			ts[j] = ts[j-1]
		}
		ts[j] = t
	}
}

// GoogleJobsFromTasks summarises tasks into jobs assuming immediate
// scheduling (the paper observes the pending queue is essentially
// always empty, so submission-to-completion equals the span of the
// tasks). CPUTime integrates each task's CPU request over its
// duration; memory is the mean task request.
func GoogleJobsFromTasks(tasks []trace.Task) []trace.Job {
	type agg struct {
		submit, end int64
		priority    int
		user        int
		count       int
		cpuTime     float64
		memSum      float64
		maxWidth    float64
	}
	jobs := make(map[int64]*agg)
	for _, t := range tasks {
		a := jobs[t.JobID]
		if a == nil {
			a = &agg{submit: t.Submit, end: t.Submit}
			jobs[t.JobID] = a
		}
		if t.Submit < a.submit {
			a.submit = t.Submit
		}
		if end := t.Submit + t.Duration; end > a.end {
			a.end = end
		}
		a.priority = t.Priority
		a.user = t.User
		a.count++
		a.cpuTime += t.CPUReq * t.Busy * float64(t.Duration)
		a.memSum += t.MemReq
	}
	// Parallel width: tasks of a job overlap almost entirely, so the
	// width is the task count capped by observing overlap at the job
	// midpoint. For the workload-level analyses a simple count is the
	// right notion of "processors used simultaneously" scaled by the
	// per-task CPU share.
	out := make([]trace.Job, 0, len(jobs))
	for id, a := range jobs {
		j := trace.Job{
			ID:        id,
			Submit:    a.submit,
			End:       a.end,
			Priority:  a.priority,
			User:      a.user,
			TaskCount: a.count,
			NumCPUs:   1, // a Google task takes (a fraction of) one core
			CPUTime:   a.cpuTime,
			MemAvg:    a.memSum / float64(a.count),
		}
		if a.maxWidth > 1 {
			j.NumCPUs = a.maxWidth
		}
		out = append(out, j)
	}
	slices.SortFunc(out, func(a, b trace.Job) int {
		if a.Submit != b.Submit {
			return cmp.Compare(a.Submit, b.Submit)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// FullScaleMachines is the machine count of the real trace.
const FullScaleMachines = 12500

// utilizationPark is the park size at which 552 jobs/hour of our
// calibrated workload reproduces the trace's utilisation levels
// (~35 % CPU, ~60 % memory). It differs from FullScaleMachines because
// our synthetic per-task demands are calibrated to the paper's job
// statistics, not to Google's undisclosed absolute demand volume.
const utilizationPark = 525

// ScaledJobsPerHour returns the submission rate that keeps the
// simulated cluster at the trace's utilisation level for a park of the
// given size.
func ScaledJobsPerHour(machines int) float64 {
	return 552 * float64(machines) / utilizationPark
}

// ScaledGoogleConfig returns the default calibration with the
// submission rate scaled to the park size. The widest map-reduce jobs
// are capped proportionally: at full scale a 2000-task job is a tiny
// fraction of the cluster, and keeping that ratio preserves the
// paper's empty-pending-queue property on small parks.
func ScaledGoogleConfig(machines int, horizon int64) GoogleConfig {
	cfg := DefaultGoogleConfig(horizon)
	cfg.JobsPerHour = ScaledJobsPerHour(machines)
	cfg.Arrival.PerHour = cfg.JobsPerHour
	maxTasks := 2000 * machines / utilizationPark
	if maxTasks < 40 {
		maxTasks = 40
	}
	if maxTasks > 2000 {
		maxTasks = 2000
	}
	cfg.MaxTasksPerJob = maxTasks
	cfg.WarmStart = true
	return cfg
}

// GoogleMachines builds a heterogeneous machine park with the
// normalised capacity classes visible in Fig 7: CPU in {0.25, 0.5, 1}
// and memory in {0.25, 0.5, 0.75, 1}; page-cache capacity is 1 for all
// hosts.
func GoogleMachines(n int, s *rng.Stream) []trace.Machine {
	cpuClasses := dist.Empirical{
		Values:  []float64{0.25, 0.5, 1.0},
		Weights: []float64{0.31, 0.54, 0.15},
	}
	memClasses := dist.Empirical{
		Values:  []float64{0.25, 0.5, 0.75, 1.0},
		Weights: []float64{0.30, 0.49, 0.12, 0.09},
	}
	out := make([]trace.Machine, n)
	for i := range out {
		out[i] = trace.Machine{
			ID:        i,
			CPU:       cpuClasses.Sample(s),
			Memory:    memClasses.Sample(s),
			PageCache: 1,
		}
	}
	return out
}
