package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// Fixed serve-mixed rates. The hot stream runs at 7% of the serve-hot
// throughput measured on a 2-vCPU AMD EPYC VM (17k req/s): at 10% the
// hot p50 there turned bimodal from run to run (IQR 23% of the median
// over ten runs, against 11% at this rate). The cold stream keeps one
// core about half busy building (a new scenario costs about 60 ms of
// CPU there). Fixed rates fix the work a run offers, so cpu_ms_per_op
// compares across commits. BENCHMARK.json states both in the
// serve-mixed rationale.
const (
	hotRate  = 1200 // requests per second
	coldRate = 24   // requests per second, three per scenario slot
)

// Cold scenarios are small (8 machines, one day), and every
// revisitEvery-th scenario slot revisits the scenario revisitDistance
// new scenarios back: evicted from the 8-entry context LRU and, past 64
// artifacts, from the replica's in-process tier, so it reads through
// the checkpoint store.
const (
	coldMachines    = 8
	revisitEvery    = 4
	revisitDistance = 20
	// coldSeedBase and warmSeedBase number the fixed scenario panels
	// of the timed phase and of the warm-up; a scenario's build cost
	// depends strongly on its seed, so every run builds the same set
	// and --seed only orders it.
	coldSeedBase = 1000
	warmSeedBase = 5000
)

// coldExps are the artifacts each cold scenario serves, in request
// order: a workload-side figure that builds with synth, a host-load
// figure that builds with cluster, and an analysis-only figure on the
// now-warm context.
var coldExps = []string{"fig2", "fig7", "fig11"}

// maxLateMS is how far behind its schedule the generator itself may
// fall (p99, beyond waiting for its connection) before the run is
// declared invalid instead of reported.
const maxLateMS = 20.0

func coldConfig(seed uint64) core.Config {
	cfg := core.QuickConfig()
	cfg.Seed = seed
	cfg.Machines = coldMachines
	cfg.SimHorizon = 86400
	cfg.WorkloadHorizon = 86400
	return cfg
}

func coldPath(exp string, seed uint64) string {
	return fmt.Sprintf("/v1/artifacts/%s?seed=%d&machines=%d&days=1&workload_days=1", exp, seed, coldMachines)
}

// coldReq is one request of the cold stream.
type coldReq struct {
	seed    uint64
	exp     string
	revisit bool
	body    []byte // kept for the post-run recomputation check
}

// coldPlan lays out n cold requests: scenario slots of len(coldExps)
// requests each, every revisitEvery-th slot a revisit and the rest new
// scenarios, which are the whole fixed panel in seeded order. history
// holds the warm-up's scenarios, oldest first; it must hold at least
// revisitDistance of them.
func coldPlan(n int, seed uint64, history []uint64) []coldReq {
	slots := (n + len(coldExps) - 1) / len(coldExps)
	revisit := func(s int) bool { return s%revisitEvery == revisitEvery-1 }
	var fresh []uint64
	for s := 0; s < slots; s++ {
		if !revisit(s) {
			fresh = append(fresh, coldSeedBase+uint64(len(fresh)))
		}
	}
	r := rand.New(rand.NewPCG(seed, 0xc01d))
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	var reqs []coldReq
	hist := slices.Clone(history)
	for s := 0; len(reqs) < n; s++ {
		var sc uint64
		if revisit(s) {
			sc = hist[len(hist)-revisitDistance]
		} else {
			sc, fresh = fresh[0], fresh[1:]
			hist = append(hist, sc)
		}
		for _, e := range coldExps {
			if len(reqs) < n {
				reqs = append(reqs, coldReq{seed: sc, exp: e, revisit: revisit(s)})
			}
		}
	}
	return reqs
}

// stamped is one open-loop request: latency runs from its due time,
// service from when it was actually sent.
type stamped struct {
	sample
	serviceMS float64
	lateMS    float64 // generator delay beyond waiting for the connection
}

// openLoop sends n requests on one connection, request i due at
// start + i/rate, and times each from its due time. A request whose
// predecessor is still outstanding waits for it: that wait is the
// system's, not the generator's, and is not counted as lateness.
func openLoop(start time.Time, n int, rate float64, do func(i int, c *conn) (int, error)) []stamped {
	cn := newConn(60 * time.Second)
	out := make([]stamped, 0, n)
	var prevDone time.Time
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		send := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		size, _ := do(i, cn)
		done := time.Now()
		prevDone = done
		out = append(out, stamped{
			sample:    sample{latMS: ms(done.Sub(due)), bytes: size},
			serviceMS: ms(done.Sub(send)),
			lateMS:    ms(send.Sub(ready)),
		})
	}
	return out
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks in the kernel until t: Go's timers wake an idle
// thread at millisecond granularity, too coarse for the schedule. The
// thread is held only for the sleep, with a 1 ns timer slack (the 50 µs
// default would be charged to every request).
func sleepUntil(t time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// mixedRun is one serve-mixed timed phase.
type mixedRun struct {
	hot, cold []stamped
	coldReqs  []coldReq
	elapsed   time.Duration
}

// runMixedPhase drives both streams for the given time against d.
func runMixedPhase(d *daemon, cyc []hotReq, cold []coldReq, seconds float64, res *result) mixedRun {
	nHot := int(seconds * hotRate)
	start := time.Now().Add(10 * time.Millisecond)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var run mixedRun
	run.coldReqs = cold
	wg.Add(2)
	go func() {
		defer wg.Done()
		run.hot = openLoop(start, nHot, hotRate, func(i int, c *conn) (int, error) {
			r := cyc[i%len(cyc)]
			inm := ""
			if r.inm {
				inm = r.u.etag
			}
			status, body, etag, err := c.get(d.base, r.u.path, inm)
			if err == nil {
				err = checkHot(r, status, body, etag)
			}
			if err != nil {
				mu.Lock()
				res.fail("hot: %v", err)
				mu.Unlock()
			}
			return len(body), err
		})
	}()
	go func() {
		defer wg.Done()
		run.cold = openLoop(start, len(cold), coldRate, func(i int, c *conn) (int, error) {
			cr := &cold[i]
			status, body, _, err := c.get(d.base, coldPath(cr.exp, cr.seed), "")
			if err == nil {
				err = checkCold(cr, status, body)
			}
			if err != nil {
				mu.Lock()
				res.fail("cold: %v", err)
				mu.Unlock()
			}
			return len(body), err
		})
	}()
	wg.Wait()
	run.elapsed = time.Since(start)
	return run
}

// checkCold is the per-request cold check: a 200 whose JSON is the
// requested artifact. Byte-level checks run after the phase.
func checkCold(cr *coldReq, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s seed %d: status %d", cr.exp, cr.seed, status)
	}
	var r struct{ ID string }
	if err := json.Unmarshal(body, &r); err != nil || r.ID != cr.exp {
		return fmt.Errorf("%s seed %d: body is not that artifact (%v)", cr.exp, cr.seed, err)
	}
	cr.body = bytes.Clone(body)
	return nil
}

// recheckCold recomputes a deterministic sample of the cold responses
// in-process and compares bytes: every recheckEvery-th request.
func recheckCold(reqs []coldReq, res *result) int {
	const recheckEvery = 7
	ctxs := map[uint64]*core.Context{}
	n := 0
	for i := 0; i < len(reqs); i += recheckEvery {
		cr := reqs[i]
		if cr.body == nil {
			continue // already counted as failed
		}
		c, ok := ctxs[cr.seed]
		if !ok {
			c = core.NewContext(coldConfig(cr.seed))
			ctxs[cr.seed] = c
		}
		e, err := core.Find(cr.exp)
		if err != nil {
			res.problem("recheck: %v", err)
			continue
		}
		r, err := core.RunOne(context.Background(), c, e, 0, nil)
		var want []byte
		if err == nil {
			want, err = json.Marshal(r)
		}
		n++
		if err != nil || string(want) != string(cr.body) {
			res.problem("recheck %s seed %d: served bytes differ from in-process recomputation (%v)", cr.exp, cr.seed, err)
		}
	}
	return n
}

// warmScenarios builds the warm-up scenarios at full speed on one
// connection, so revisits have evicted targets from the first second.
func warmScenarios(d *daemon) ([]uint64, error) {
	cn := newConn(60 * time.Second)
	var hist []uint64
	for i := 0; i < revisitDistance; i++ {
		sc := warmSeedBase + uint64(i)
		for _, e := range coldExps {
			cr := coldReq{seed: sc, exp: e}
			status, body, _, err := cn.get(d.base, coldPath(e, sc), "")
			if err == nil {
				err = checkCold(&cr, status, body)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		hist = append(hist, sc)
	}
	return hist, nil
}

func mixedArgs(env *runEnv, tag string) func(int) []string {
	return func(i int) []string {
		return []string{"-addr", "127.0.0.1:0", "-prewarm", "-replica-id", "r0",
			"-checkpoint-dir", filepath.Join(env.work, fmt.Sprintf("ckpt-%s-%d", tag, i))}
	}
}

func runServeMixed(env *runEnv) (*result, error) {
	res := &result{}
	urls, _, err := hotURLs(core.QuickConfig())
	if err != nil {
		return nil, err
	}
	cyc := hotCycle(urls, env.seed)
	res.env = append(res.env, fmt.Sprintf("gomaxprocs_daemon=%d connections=2 hot_rate=%d/s cold_rate=%d/s cold_scenario=%dm/1d revisit=1/%d@%d",
		runtime.GOMAXPROCS(0), hotRate, coldRate, coldMachines, revisitEvery, revisitDistance))

	d, setup, err := startDaemons(env, daemonSetups, mixedArgs(env, "plain"), daemonEnv())
	if err != nil {
		return nil, err
	}
	defer d.kill()
	res.m.add("setup_s", "s", median(setup), len(setup), "replica daemon exec to /healthz 200 and prewarm done")

	seconds := env.seconds
	if env.trace {
		seconds /= 2
	}
	// prepare warms a daemon: every hot URL once (learning its ETag),
	// the warm-up scenarios, and half a second of hot traffic. It
	// returns the cold plan for the timed phase.
	prepare := func(d *daemon) ([]coldReq, error) {
		learnETags(d.base, urls, res)
		hist, err := warmScenarios(d)
		if err != nil {
			return nil, err
		}
		closedLoop(d.base, cyc, 1, 500*time.Millisecond, &result{})
		return coldPlan(int(seconds*coldRate), env.seed, hist), nil
	}
	timed := func(d *daemon, cold []coldReq) (mixedRun, phase, error) {
		var run mixedRun
		ph, err := measure(d, func() ([]sample, time.Duration) {
			run = runMixedPhase(d, cyc, cold, seconds, res)
			return nil, run.elapsed
		})
		return run, ph, err
	}

	cold, err := prepare(d)
	if err != nil {
		return nil, err
	}
	run, ph, err := timed(d, cold)
	if err != nil {
		return nil, err
	}
	if err := res.addMixedMetrics(run, ph); err != nil {
		return nil, err
	}
	res.m.add("cold.rechecked", "count", float64(recheckCold(run.coldReqs, res)), 0, "cold responses recomputed in-process")
	if err := d.stop(30 * time.Second); err != nil || !env.trace {
		return res, err
	}

	// Traced run: the same phase again on a fresh traced daemon.
	ckptDir := filepath.Join(env.work, "ckpt-traced")
	tr, err := startTraced(env, []string{"-prewarm", "-replica-id", "r0", "-checkpoint-dir", ckptDir})
	if err != nil {
		return nil, err
	}
	defer tr.d.kill()
	tcold, err := prepare(tr.d)
	if err != nil {
		return nil, err
	}
	before, err := tr.scrape()
	if err != nil {
		return nil, err
	}
	var trun mixedRun
	tph, err := tr.run(func() (phase, error) {
		var ph phase
		var err error
		trun, ph, err = timed(tr.d, tcold)
		return ph, err
	})
	if err != nil {
		return nil, err
	}
	if err := checkLate(res, trun); err != nil {
		return nil, err
	}
	res.attempted += len(trun.hot) + len(trun.cold)
	var service []float64
	for _, s := range trun.hot {
		service = append(service, s.serviceMS)
	}
	hotOnly := func(r accessRec) bool { return !strings.Contains(r.Query, "seed=") }
	if err := tr.report(res, tph, len(trun.hot)+len(trun.cold), ph, len(run.hot)+len(run.cold), before, service, hotOnly); err != nil {
		return nil, err
	}
	if err := tr.mixedLayers(res, trun, before, ckptDir); err != nil {
		return nil, err
	}
	return res, tr.d.stop(30 * time.Second)
}

func stampedSamples(s []stamped) []sample {
	out := make([]sample, len(s))
	for i, x := range s {
		out[i] = x.sample
	}
	return out
}

// checkLate declares a run invalid when the generator itself fell
// behind its schedule, and records how far behind it ran.
func checkLate(r *result, run mixedRun) error {
	var late []float64
	for _, s := range run.hot {
		late = append(late, s.lateMS)
	}
	for _, s := range run.cold {
		late = append(late, s.lateMS)
	}
	ld := newDist(late)
	p := ld.tailP(0.99, 0.9)
	v, err := ld.q(p)
	if err != nil {
		return fmt.Errorf("generator lateness: %w", err)
	}
	r.m.add("gen.sent", "count", float64(ld.n()), 0, "requests sent by both streams")
	r.m.add(fmt.Sprintf("gen.late_p%g_ms", 100*p), "ms", v, ld.n(), "generator delay beyond its own connection")
	if v > maxLateMS {
		return fmt.Errorf("run invalid: generator ran %.1f ms behind schedule at p%g (limit %.0f ms)", v, 100*p, maxLateMS)
	}
	return nil
}

func (r *result) addMixedMetrics(run mixedRun, ph phase) error {
	if err := checkLate(r, run); err != nil {
		return err
	}
	n := len(run.hot) + len(run.cold)
	r.attempted += n
	hot := latencies(stampedSamples(run.hot))
	r.m.addLatency("", hot, 0.99, 0.9)
	r.m.addLatency("hot_", hot, 0.99, 0.9)
	r.m.addLatency("cold_", latencies(stampedSamples(run.cold)), 0.9)
	r.m.add("throughput_rps", "1/s", float64(n)/run.elapsed.Seconds(), n, "completed requests per second at the fixed offered rates")
	r.m.add("cpu_ms_per_op", "ms", ms(ph.cpu)/float64(n), n, "daemon CPU from /proc/<pid>/stat over the timed phase")
	r.m.add("max_rss_mb", "MB", ph.peakMB, ph.windows, "daemon VmHWM, median of 1-s window peaks")
	r.m.add("serve.resp_kb", "KB", meanKB(stampedSamples(run.hot)), len(run.hot), "mean hot response body")
	return nil
}
