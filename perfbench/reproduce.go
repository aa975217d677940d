package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// reproducePanel is the set of QuickConfig seeds a reproduce run
// regenerates. A reproduction's cost depends heavily on its config seed
// (seed 2 takes half the time of seed 1, and some seeds take five
// times as long), so the panel is fixed and every run covers it in
// whole rounds; --seed only orders the rounds. Seed 1 is the paper
// default.
var reproducePanel = []uint64{1, 2, 3, 4}

func panelConfig(seed uint64) core.Config {
	cfg := core.QuickConfig()
	cfg.Seed = seed
	return cfg
}

// reproduceOp is one full serial regeneration of the 15 paper artifacts
// on a fresh context, rendered as the markdown report cmd/repro
// -markdown writes.
func reproduceOp(cfg core.Config) ([]byte, error) {
	c := core.NewContext(cfg)
	results, err := core.RunExperiments(context.Background(), c, core.Experiments(), core.RunOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := core.WriteMarkdownReport(&buf, cfg, results, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// opSample is one timed reproduction.
type opSample struct {
	cfg     int // index into reproducePanel
	wallMS  float64
	cpuMS   float64
	peakMB  float64
	matched bool
}

// runReproduce measures the researcher's path in-process.
func runReproduce(env *runEnv) (*result, error) {
	res := &result{}
	pid := os.Getpid()
	if err := resetPeakRSS(pid); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}

	// Set-up: cold `repro -markdown` runs, three per panel config. One
	// is the researcher's first reproduction in a fresh process, and its
	// report is the reference every op must match. As with p50_ms, the
	// configs are weighed equally: the median of all runs would fall
	// between the cheap and the dear configs and jump between them.
	refs := make([][]byte, len(reproducePanel))
	var setup []opSample
	for round := 0; round < 3; round++ {
		for i, s := range reproducePanel {
			path := filepath.Join(env.work, fmt.Sprintf("ref-%d.md", s))
			d, err := runTimed(context.Background(), env.reproBin, "-scale", "quick", "-parallel", "1",
				"-seed", strconv.FormatUint(s, 10), "-markdown", path)
			if err != nil {
				return nil, err
			}
			setup = append(setup, opSample{cfg: i, wallMS: ms(d)})
			if refs[i], err = os.ReadFile(path); err != nil {
				return nil, err
			}
		}
	}
	res.m.add("setup_s", "s", panelMedian(setup, func(s opSample) float64 { return s.wallMS })/1000, len(setup),
		"cold `repro -markdown` run, exec to exit; mean over configs of per-config medians")

	// Warm-up: one verified op per config, untimed.
	for i, s := range reproducePanel {
		got, err := reproduceOp(panelConfig(s))
		res.attempted++
		if err != nil || !bytes.Equal(got, refs[i]) {
			res.fail("reproduce seed %d: warm-up report differs from cmd/repro -markdown (err %v)", s, err)
		}
	}

	order := rand.New(rand.NewPCG(env.seed, 0x5eed))
	timed := func(seconds float64, traced bool) ([]opSample, *traceAcc, runtime.MemStats, runtime.MemStats) {
		var samples []opSample
		var acc *traceAcc
		if traced {
			acc = newTraceAcc()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for time.Since(start).Seconds() < seconds {
			for _, i := range order.Perm(len(reproducePanel)) {
				cfg := panelConfig(reproducePanel[i])
				// Each op starts from an empty heap, as a fresh repro
				// process does: the previous op's garbage is neither
				// charged to it nor counted in its peak RSS.
				debug.FreeOSMemory()
				_ = resetPeakRSS(pid)
				c0, t0 := selfCPU(), time.Now()
				var got []byte
				var err error
				var opWall time.Duration
				if traced {
					got, opWall, err = acc.op(cfg)
				} else {
					got, err = reproduceOp(cfg)
				}
				wall, cpu := time.Since(t0), selfCPU()-c0
				if traced {
					wall = opWall // without the split measured after the op
				}
				peak, _ := peakRSSMB(pid)
				samples = append(samples, opSample{cfg: i, wallMS: ms(wall), cpuMS: ms(cpu), peakMB: peak,
					matched: err == nil && bytes.Equal(got, refs[i])})
			}
		}
		runtime.ReadMemStats(&ms1)
		return samples, acc, ms0, ms1
	}

	if !env.trace {
		samples, _, ms0, ms1 := timed(env.seconds, false)
		res.addReproduceMetrics(samples, ms0, ms1)
		return res, nil
	}

	// Traced run: half the time untraced, half traced, so the tracing
	// overhead is measured rather than assumed.
	plain, _, ms0, ms1 := timed(env.seconds/2, false)
	res.addReproduceMetrics(plain, ms0, ms1)
	traced, acc, _, _ := timed(env.seconds/2, true)
	for _, s := range traced {
		res.attempted++
		if !s.matched {
			res.fail("reproduce seed %d: traced report differs from cmd/repro -markdown", reproducePanel[s.cfg])
		}
	}
	plainP50 := panelMedian(plain, func(s opSample) float64 { return s.wallMS })
	tracedP50 := panelMedian(traced, func(s opSample) float64 { return s.wallMS })
	res.m.add("obs.trace_overhead_pct", "%", 100*(tracedP50/plainP50-1), len(traced), "traced vs untraced op p50")
	if err := acc.report(&res.m, len(traced)); err != nil {
		return nil, err
	}
	if share, _ := res.m.get("core.unattributed_share"); share.Value > unattributedTolerance {
		res.problem("layer budget: %.1f%% of op time unattributed, tolerance %.0f%%", 100*share.Value, 100*unattributedTolerance)
	}
	return res, nil
}

// unattributedTolerance bounds the share of a traced reproduction that
// the per-layer timings may leave unexplained (BENCHMARK.json states it
// in the reproduce workload's rationale).
const unattributedTolerance = 0.05

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// panelMedian is the mean over panel configs of each config's median,
// so every run weighs the configs equally however many ops each got.
func panelMedian(samples []opSample, f func(opSample) float64) float64 {
	per := make([][]float64, len(reproducePanel))
	for _, s := range samples {
		per[s.cfg] = append(per[s.cfg], f(s))
	}
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

func (r *result) addReproduceMetrics(samples []opSample, ms0, ms1 runtime.MemStats) {
	n := len(samples)
	var wallSum, cpuSum float64
	for _, s := range samples {
		r.attempted++
		if !s.matched {
			r.fail("reproduce seed %d: report differs from cmd/repro -markdown", reproducePanel[s.cfg])
		}
		wallSum += s.wallMS
		cpuSum += s.cpuMS
	}
	note := fmt.Sprintf("mean over %d panel configs of per-config medians", len(reproducePanel))
	r.m.add("p50_ms", "ms", panelMedian(samples, func(s opSample) float64 { return s.wallMS }), n, note)
	r.m.add("throughput_rps", "1/s", 1000*float64(n)/wallSum, n, "reproductions per second of op time")
	r.m.add("cpu_ms_per_op", "ms", cpuSum/float64(n), n, "getrusage over op windows")
	r.m.add("max_rss_mb", "MB", panelMedian(samples, func(s opSample) float64 { return s.peakMB }), n, "VmHWM per op; "+note)
	r.m.add("runtime.alloc_kb_per_op", "KB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(n), n, "")
	r.m.add("runtime.gc_cycles_per_kop", "count", 1000*float64(ms1.NumGC-ms0.NumGC)/float64(n), n, "includes one forced GC per op")
	r.m.add("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/float64(n), n, "stop-the-world pause per op")
}

// traceAcc times the public calls a reproduction makes, op by op.
type traceAcc struct {
	grids  []string             // grid systems the experiments read, in first-use order
	timeMS map[string][]float64 // per-layer self time per op
	counts map[string][]float64 // per-op counters from the recorder
}

func newTraceAcc() *traceAcc {
	return &traceAcc{timeMS: map[string][]float64{}, counts: map[string][]float64{}}
}

func (a *traceAcc) add(name string, d time.Duration) { a.timeMS[name] = append(a.timeMS[name], ms(d)) }

// op is reproduceOp with every layer boundary timed. The memoized cells
// are filled first, each by its own public accessor, so that
// Experiment.Run afterwards times only the analysis kernel.
func (a *traceAcc) op(cfg core.Config) ([]byte, time.Duration, error) {
	t0 := time.Now()
	c := core.NewContext(cfg)
	rec := obs.NewRecorder()
	c.SetRecorder(rec)
	if a.grids == nil {
		// Learn which grid systems the experiments read from one
		// recorded run; prefetching others would add work the
		// untraced op does not do.
		probe := core.NewContext(cfg)
		prec := obs.NewRecorder()
		probe.SetRecorder(prec)
		if _, err := core.RunExperiments(context.Background(), probe, core.Experiments(), core.RunOptions{Workers: 1}); err != nil {
			return nil, 0, err
		}
		for _, s := range prec.Registry().Snapshot() {
			if name, ok := strings.CutPrefix(s.Name, "core.cell.grid_"); ok && strings.HasSuffix(name, ".miss") {
				a.grids = append(a.grids, strings.TrimSuffix(name, ".miss"))
			}
		}
		slices.Sort(a.grids)
		t0 = time.Now()
	}
	timeCall := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		a.add(name, time.Since(t))
		return err
	}
	var tasks int
	err := timeCall("synth.workload_tasks_ms", func() error {
		ts, err := c.GoogleTasks()
		tasks = len(ts)
		if err == nil {
			_, err = c.GoogleJobs()
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var gridT time.Duration
	for _, g := range a.grids {
		t := time.Now()
		if _, err := c.GridJobs(g); err != nil {
			return nil, 0, err
		}
		gridT += time.Since(t)
	}
	a.add("synth.grid_jobs_ms", gridT)
	if err := timeCall("core.sim_cell_ms", func() error { _, err := c.Sim(); return err }); err != nil {
		return nil, 0, err
	}

	exps := core.Experiments()
	timedExps := make([]core.Experiment, len(exps))
	durs := make([]time.Duration, len(exps))
	for i, e := range exps {
		timedExps[i] = core.Experiment{ID: e.ID, Title: e.Title, Run: func(c *core.Context) (*core.Result, error) {
			t := time.Now()
			r, err := e.Run(c)
			durs[i] = time.Since(t)
			return r, err
		}}
	}
	results, err := core.RunExperiments(context.Background(), c, timedExps, core.RunOptions{Workers: 1})
	if err != nil {
		return nil, 0, err
	}
	var analysis time.Duration
	for i, e := range exps {
		a.add("core.exp."+e.ID+"_ms", durs[i])
		analysis += durs[i]
	}
	a.add("core.analysis_ms", analysis)
	var buf bytes.Buffer
	if err := timeCall("core.markdown_ms", func() error { return core.WriteMarkdownReport(&buf, cfg, results, nil) }); err != nil {
		return nil, 0, err
	}
	opWall := time.Since(t0)
	a.add("op_ms", opWall)

	for _, s := range rec.Registry().Snapshot() {
		if strings.HasPrefix(s.Name, "core.cell.") && strings.HasSuffix(s.Name, ".miss") ||
			s.Name == "cluster.events_dispatched" || s.Name == "cluster.machine_scans" {
			a.counts[s.Name] = append(a.counts[s.Name], s.Value)
		}
	}

	// The sim cell's split, measured on the same inputs outside the op
	// window: the task generation it runs, then the simulator alone.
	td, sd, simTasks, allocMB, err := simSplit(cfg)
	if err != nil {
		return nil, 0, err
	}
	a.add("synth.sim_tasks_ms", td)
	a.add("cluster.simulate_ms", sd)
	a.counts["cluster.alloc_mb"] = append(a.counts["cluster.alloc_mb"], allocMB)
	a.counts["synth.tasks"] = append(a.counts["synth.tasks"], float64(tasks+simTasks))
	return buf.Bytes(), opWall, nil
}

// report turns the per-op timings into per-layer metrics and the layer
// budget: each layer's median self time, and the share of the op that
// no layer accounts for.
func (a *traceAcc) report(m *metrics, n int) error {
	med := func(name string) float64 {
		xs := a.timeMS[name]
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	for _, name := range []string{"synth.workload_tasks_ms", "synth.sim_tasks_ms", "synth.grid_jobs_ms"} {
		m.add(name, "ms", med(name), n, "median self time per op")
	}
	m.add("synth.tasks", "count", median(a.counts["synth.tasks"]), n, "workload + simulator tasks per op")
	m.add("cluster.simulate_ms", "ms", med("cluster.simulate_ms"), n, "SimulateCtx alone, on the sim cell's inputs")
	events := median(a.counts["cluster.events_dispatched"])
	m.add("cluster.events_dispatched", "count", events, n, "")
	m.add("cluster.machine_scans", "count", median(a.counts["cluster.machine_scans"]), n, "")
	if events > 0 {
		m.add("cluster.ns_per_event", "ns", 1e6*med("cluster.simulate_ms")/events, n, "")
	}
	m.add("cluster.alloc_mb", "MB", median(a.counts["cluster.alloc_mb"]), n, "TotalAlloc during SimulateCtx")
	for _, e := range core.Experiments() {
		name := "core.exp." + e.ID + "_ms"
		m.add(name, "ms", med(name), n, "Experiment.Run on warm cells")
	}
	m.add("core.analysis_ms", "ms", med("core.analysis_ms"), n, "sum of the 15 experiment runs")
	m.add("core.markdown_ms", "ms", med("core.markdown_ms"), n, "")
	m.add("core.sim_cell_ms", "ms", med("core.sim_cell_ms"), n, "Sim(): simulator task generation + SimulateCtx")
	var cells []string
	for name := range a.counts {
		if strings.HasPrefix(name, "core.cell.") {
			cells = append(cells, name)
		}
	}
	slices.Sort(cells)
	for _, name := range cells {
		m.add(name, "count", median(a.counts[name]), n, "per op")
	}

	// The budget is computed per op and summarized by its median, so
	// every term comes from the same reproduction.
	ops := len(a.timeMS["op_ms"])
	var unattr, share []float64
	for i := 0; i < ops; i++ {
		attributed := a.timeMS["synth.workload_tasks_ms"][i] + a.timeMS["synth.grid_jobs_ms"][i] +
			a.timeMS["core.sim_cell_ms"][i] + a.timeMS["core.analysis_ms"][i] + a.timeMS["core.markdown_ms"][i]
		op := a.timeMS["op_ms"][i]
		unattr = append(unattr, op-attributed)
		share = append(share, (op-attributed)/op)
	}
	if ops == 0 {
		return fmt.Errorf("traced reproduce ran no ops")
	}
	m.add("core.unattributed_ms", "ms", median(unattr), ops, "op wall minus timed layers")
	m.add("core.unattributed_share", "ratio", median(share), ops, "")
	return nil
}
