package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The traced runs observe the daemon only from outside: its access log,
// its span ring polled through /debug/trace, its /metrics counters and
// the Go runtime's gctrace lines on its stderr.

// tracedDaemon is a daemon started with its access log and gctrace on,
// plus what a traced phase collected from it.
type tracedDaemon struct {
	d       *daemon
	logPath string

	access  []accessRec
	spans   []spanRec
	dropped int // spans evicted from the ring before a poll saw them
	gc      []string
}

type accessRec struct {
	Endpoint  string `json:"endpoint"`
	Query     string `json:"query"`
	Status    int    `json:"status"`
	LatencyUS int64  `json:"latency_us"`
	GateUS    int64  `json:"gate_wait_us"`
	Coalesced bool   `json:"coalesced"`
	Leader    bool   `json:"leader"`
}

type spanRec struct {
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id"`
	Seq      uint64 `json:"seq"`
}

// startTraced starts one traced daemon; args follow -addr.
func startTraced(env *runEnv, args []string) (*tracedDaemon, error) {
	logPath := filepath.Join(env.work, "access.jsonl")
	all := append([]string{"-addr", "127.0.0.1:0", "-access-log", logPath}, args...)
	d, _, err := startDaemon(env.reprodBin, all, append(daemonEnv(), "GODEBUG=gctrace=1"), 60*time.Second)
	if err != nil {
		return nil, err
	}
	return &tracedDaemon{d: d, logPath: logPath}, nil
}

// run executes a timed phase while polling the span ring, and keeps the
// access-log records, spans and GC cycles that fall inside it.
func (t *tracedDaemon) run(f func() (phase, error)) (phase, error) {
	logStart, err := fileSize(t.logPath)
	if err != nil {
		return phase{}, err
	}
	cn := newConn(10 * time.Second)
	// Spans before the phase are skipped by starting past them.
	var since uint64
	pre, _, err := t.poll(cn, 0)
	if err != nil {
		return phase{}, err
	}
	for _, s := range pre {
		since = max(since, s.Seq)
	}
	gc0 := len(t.d.gcTrace())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pollErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for done := false; !done; {
			select {
			case <-stop:
				done = true
			case <-tick.C:
			}
			spans, gap, err := t.poll(cn, since)
			if err != nil {
				pollErr = err
				return
			}
			t.dropped += gap
			for _, s := range spans {
				since = max(since, s.Seq)
			}
			t.spans = append(t.spans, spans...)
		}
	}()
	ph, err := f()
	// The last requests log after their responses are written.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err != nil {
		return phase{}, err
	}
	if pollErr != nil {
		return phase{}, pollErr
	}
	t.gc = t.d.gcTrace()[gc0:]
	t.access, err = readAccess(t.logPath, logStart)
	return ph, err
}

// poll fetches the spans after since; gap counts sequence numbers the
// ring dropped before this poll.
func (t *tracedDaemon) poll(cn *conn, since uint64) ([]spanRec, int, error) {
	status, body, _, err := cn.get(t.d.base, "/debug/trace?since="+strconv.FormatUint(since, 10), "")
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("/debug/trace: status %d", status)
	}
	var spans []spanRec
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var s spanRec
		if err := dec.Decode(&s); err != nil {
			return nil, 0, fmt.Errorf("/debug/trace: %w", err)
		}
		spans = append(spans, s)
	}
	gap := 0
	if since > 0 && len(spans) > 0 && spans[0].Seq > since+1 {
		gap = int(spans[0].Seq - since - 1)
	}
	return spans, gap, nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func readAccess(path string, from int64) ([]accessRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, err
	}
	var recs []accessRec
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r accessRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// promSample matches one sample line of the Prometheus text format.
var promSample = regexp.MustCompile(`^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (\S+)`)

// scrape reads /metrics into name{labels} → value.
func (t *tracedDaemon) scrape() (map[string]float64, error) {
	status, body, _, err := newConn(10*time.Second).get(t.d.base, "/metrics", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if v, err := strconv.ParseFloat(m[3], 64); err == nil {
			out[m[1]+m[2]] = v
		}
	}
	return out, nil
}

// delta is how far a registry counter, named as the registry names it,
// moved between two scrapes.
func delta(before, after map[string]float64, name string) float64 {
	p := obs.PromName(name)
	return after[p] - before[p]
}

// report records the per-layer figures every served trace shares.
// client holds the service times of the requests class selects from the
// access log, for the client-versus-daemon latency gap.
func (t *tracedDaemon) report(res *result, traced phase, tracedOps int, plain phase, plainOps int,
	before map[string]float64, client []float64, class func(accessRec) bool) error {
	after, err := t.scrape()
	if err != nil {
		return err
	}
	perOp := func(p phase, n int) float64 { return ms(p.cpu) / float64(n) }
	res.m.add("obs.trace_overhead_pct", "%", 100*(perOp(traced, tracedOps)/perOp(plain, plainOps)-1), tracedOps,
		"daemon CPU per request, access log + gctrace + span polling vs plain")

	var server, gate []float64
	requests, misses := 0, 0
	for _, r := range t.access {
		if r.Endpoint == "debug_trace" || r.Endpoint == "metrics" {
			continue
		}
		requests++
		if r.Leader || r.Coalesced {
			misses++
		}
		if class(r) {
			server = append(server, float64(r.LatencyUS)/1000)
			gate = append(gate, float64(r.GateUS)/1000)
		}
	}
	sd, cd := newDist(server), newDist(client)
	for _, p := range []float64{0.5, 0.99} {
		sv, err := sd.q(p)
		if err != nil {
			return fmt.Errorf("server latency: %w", err)
		}
		cv, err := cd.q(p)
		if err != nil {
			return fmt.Errorf("client latency: %w", err)
		}
		res.m.add(fmt.Sprintf("serve.server_p%g_ms", 100*p), "ms", sv, sd.n(), "access-log latency_us over the phase")
		res.m.add(fmt.Sprintf("http.client_server_gap_p%g_ms", 100*p), "ms", cv-sv, cd.n(), "client quantile minus daemon quantile")
	}
	if gp, err := newDist(gate).q(0.99); err == nil {
		res.m.add("serve.gate.wait_p99_ms", "ms", gp, len(gate), "access-log gate_wait_us")
	}
	res.m.add("serve.gate.rejected", "count", delta(before, after, "serve.gate.rejected"), 0, "")
	res.m.add("serve.ctx.evicted", "count", delta(before, after, "serve.ctx.evicted"), 0, "")
	res.m.add("serve.coalesce.shared", "count", delta(before, after, "serve.coalesce.shared"), 0, "")
	hits := delta(before, after, "serve.artifact.hit")
	if hits+float64(misses) > 0 {
		res.m.add("serve.artifact.hit_ratio", "ratio", hits/(hits+float64(misses)), 0, "result lookups served from memory")
	}

	spans := 0
	for _, s := range t.spans {
		if s.Name != "GET debug_trace" && s.Name != "GET metrics" {
			spans++
		}
	}
	if requests > 0 {
		res.m.add("obs.spans_per_req", "count", float64(spans)/float64(requests), requests, "")
	}
	res.m.add("obs.spans_dropped", "count", float64(t.dropped), 0, "evicted from the span ring before a poll")

	cycles, pauseMS, allocMB := parseGCTrace(t.gc)
	res.m.add("runtime.alloc_kb_per_op", "KB", 1024*allocMB/float64(tracedOps), tracedOps, "daemon, from gctrace heap sizes")
	res.m.add("runtime.gc_cycles_per_kop", "count", 1000*float64(cycles)/float64(tracedOps), tracedOps, "daemon")
	res.m.add("runtime.gc_pause_ms", "ms", pauseMS/float64(max(cycles, 1)), cycles, "daemon stop-the-world pause per cycle")
	return nil
}

// gcLine picks the stop-the-world clock phases and the heap sizes out
// of a gctrace line: "gc 7 @1.2s 3%: A+B+C ms clock, ..., X->Y->Z MB".
var gcLine = regexp.MustCompile(`: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock.* ([0-9]+)->([0-9]+)->([0-9]+) MB`)

// parseGCTrace counts cycles, sums their pauses, and estimates the
// bytes allocated as each cycle's end heap less the previous cycle's
// live heap.
func parseGCTrace(lines []string) (cycles int, pauseMS, allocMB float64) {
	prevLive := -1.0
	for _, l := range lines {
		m := gcLine.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		f := func(i int) float64 { v, _ := strconv.ParseFloat(m[i], 64); return v }
		cycles++
		pauseMS += f(1) + f(2)
		if prevLive >= 0 {
			allocMB += f(4) - prevLive
		}
		prevLive = f(5)
	}
	return cycles, pauseMS, allocMB
}

// hotInProcess times the serving layers in this process, on a server
// built from the same package the daemon runs: the handler per
// response kind, the re-marshal a JSON hit pays, and one request span.
func hotInProcess(res *result, base core.Config, urls []*hotURL, results []*core.Result) error {
	rec := obs.NewRecorder()
	srv := serve.New(serve.Config{Base: base, Rec: rec})
	if _, err := srv.Prewarm(context.Background()); err != nil {
		return err
	}
	h := srv.Handler()
	byKind := map[string][]hotReq{}
	for _, u := range urls {
		byKind[u.kind] = append(byKind[u.kind], hotReq{u: u})
		byKind["304"] = append(byKind["304"], hotReq{u: u, inm: true})
	}
	const rounds = 400
	for _, kind := range []string{"json", "md", "csv", "report", "304"} {
		reqs := byKind[kind]
		var us []float64
		for i := 0; i < rounds; i++ {
			r := reqs[i%len(reqs)]
			req := httptest.NewRequest(http.MethodGet, r.u.path, nil)
			if r.inm {
				req.Header.Set("If-None-Match", r.u.etag)
			}
			w := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(w, req)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			if err := checkHot(r, w.Code, w.Body.Bytes(), w.Header().Get("ETag")); err != nil {
				res.problem("in-process handler: %v", err)
				break
			}
		}
		res.m.add("serve.handler_us."+kind, "us", median(us), len(us), "Handler().ServeHTTP in-process")
	}
	var us []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := json.Marshal(results[i%len(results)]); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.m.add("serve.marshal_us", "us", median(us), len(us), "json.Marshal of a cached core.Result, all 15 in turn")

	// One span is too short to time alone; time batches of 1000.
	us = us[:0]
	ctx := context.Background()
	for b := 0; b < 50; b++ {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			sp, _ := rec.StartRequestSpan(ctx, "GET artifacts", obs.CatRequest)
			sp.End()
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	res.m.add("obs.request_span_us", "us", median(us), len(us)*1000, "StartRequestSpan + End, median of 1000-span batches")
	return nil
}

// simSplit times the sim cell's two stages on its own inputs: the
// scaled task generation, then the simulator alone.
func simSplit(cfg core.Config) (tasksDur, simDur time.Duration, tasks int, allocMB float64, err error) {
	seed := rng.New(cfg.Seed)
	machines := synth.GoogleMachines(cfg.Machines, seed.Child("machines"))
	gcfg := synth.ScaledGoogleConfig(cfg.Machines, cfg.SimHorizon)
	t := time.Now()
	in := synth.GenerateGoogleTasks(gcfg, seed.Child("google-sim"))
	tasksDur = time.Since(t)
	ccfg := cluster.DefaultConfig(machines, cfg.SimHorizon)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	_, err = cluster.SimulateCtx(context.Background(), ccfg, in, seed.Child("sim"))
	simDur = time.Since(t)
	runtime.ReadMemStats(&m1)
	return tasksDur, simDur, len(in), float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), err
}

// selfTimes returns each span's duration less the part of its interval
// that other spans of its trace nested inside it cover, grouped by span
// name. Nesting is read from the intervals, not the parent links: a
// cell build started inside another cell's build is linked to the
// experiment both run under.
func selfTimes(spans []spanRec) map[string][]float64 {
	byTrace := map[string][]spanRec{}
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := map[string][]float64{}
	for _, tr := range byTrace {
		for i, s := range tr {
			end := s.StartUS + s.DurUS
			var inner [][2]int64
			for j, c := range tr {
				if j != i && c.StartUS >= s.StartUS && c.StartUS+c.DurUS <= end && c.DurUS < s.DurUS {
					inner = append(inner, [2]int64{c.StartUS, c.StartUS + c.DurUS})
				}
			}
			out[s.Name] = append(out[s.Name], float64(s.DurUS-covered(inner))/1000)
		}
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else {
			curE = max(curE, x[1])
		}
	}
	return total + curE - curS
}

// mixedLayers records serve-mixed's build-side layers: per new
// scenario, the cell builds and experiment runs the daemon traced, the
// checkpoint and replica counters, and the in-process sim split.
func (t *tracedDaemon) mixedLayers(res *result, run mixedRun, before map[string]float64, ckptDir string) error {
	after, err := t.scrape()
	if err != nil {
		return err
	}
	seen := map[uint64]bool{}
	var newCfgs []uint64
	for _, cr := range run.coldReqs {
		if !cr.revisit && !seen[cr.seed] {
			seen[cr.seed] = true
			newCfgs = append(newCfgs, cr.seed)
		}
	}
	scen := float64(len(newCfgs))
	if scen == 0 {
		return fmt.Errorf("traced serve-mixed built no scenario")
	}
	note := "median per new cold scenario"
	self := selfTimes(t.spans)
	med := func(name string) float64 {
		if xs := self[name]; len(xs) > 0 {
			return median(xs)
		}
		return 0
	}
	res.m.add("synth.workload_tasks_ms", "ms", med("build:google_tasks")+med("build:google_jobs"), len(self["build:google_tasks"]), note)
	res.m.add("core.sim_cell_ms", "ms", med("build:sim"), len(self["build:sim"]), note)
	var analysis float64
	for _, e := range coldExps {
		v := med("exp:" + e)
		analysis += v
		res.m.add("core.exp."+e+"_ms", "ms", v, len(self["exp:"+e]), "span self time, "+note)
	}
	res.m.add("core.analysis_ms", "ms", analysis, len(newCfgs), "sum over the cold artifacts")
	// The cold artifacts read these cells and no grid system.
	for _, c := range []string{"google_tasks", "google_jobs", "sim"} {
		name := "core.cell." + c + ".miss"
		res.m.add(name, "count", delta(before, after, name)/scen, len(newCfgs), "per new scenario")
	}
	res.m.add("cluster.events_dispatched", "count", delta(before, after, "cluster.events_dispatched")/scen, len(newCfgs), "per new scenario")
	res.m.add("cluster.machine_scans", "count", delta(before, after, "cluster.machine_scans")/scen, len(newCfgs), "per new scenario")

	// The sim split on the first few new scenarios' inputs.
	var tasksMS, simMS, allocs, ntasks []float64
	for _, s := range newCfgs[:min(5, len(newCfgs))] {
		td, sd, n, a, err := simSplit(coldConfig(s))
		if err != nil {
			return err
		}
		tasksMS, simMS = append(tasksMS, ms(td)), append(simMS, ms(sd))
		allocs, ntasks = append(allocs, a), append(ntasks, float64(n))
	}
	res.m.add("synth.sim_tasks_ms", "ms", median(tasksMS), len(tasksMS), "in-process, on cold scenario inputs")
	res.m.add("cluster.simulate_ms", "ms", median(simMS), len(simMS), "in-process SimulateCtx, on cold scenario inputs")
	res.m.add("cluster.alloc_mb", "MB", median(allocs), len(allocs), "")
	res.m.add("synth.tasks", "count", median(ntasks), len(ntasks), "simulator tasks per cold scenario")

	for _, c := range []string{"ckpt.store", "ckpt.hit", "ckpt.miss",
		"replica.lease.acquired", "replica.build.done", "replica.local.hit", "replica.store.hit"} {
		res.m.add(c, "count", delta(before, after, c), 0, "over the traced phase")
	}
	res.m.add("replica.builds_per_new_key", "ratio",
		delta(before, after, "replica.build.done")/(scen*float64(len(coldExps))), len(newCfgs), "")
	return ckptLayer(res, run, ckptDir)
}

// ckptLayer sizes the daemon's checkpoints and times the store's save
// and load paths in-process on served cold payloads.
func ckptLayer(res *result, run mixedRun, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return err
	}
	var total int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			total += fi.Size()
		}
	}
	if len(files) > 0 {
		res.m.add("ckpt.kb_per_save", "KB", float64(total)/1024/float64(len(files)), len(files), "checkpoint files in the daemon's store")
	}
	store, err := ckpt.NewStore(filepath.Join(filepath.Dir(dir), "ckpt-probe"), nil)
	if err != nil {
		return err
	}
	var save, load []float64
	for i, cr := range run.coldReqs {
		if cr.body == nil || i%3 != 0 {
			continue
		}
		key := ckpt.Key("perfbench", strconv.Itoa(i))
		t0 := time.Now()
		if _, err := store.SaveRaw(key, cr.body); err != nil {
			return err
		}
		t1 := time.Now()
		if _, ok, err := store.LoadRaw(key); err != nil || !ok {
			return fmt.Errorf("ckpt probe load: ok=%v err=%v", ok, err)
		}
		save, load = append(save, ms(t1.Sub(t0))), append(load, ms(time.Since(t1)))
	}
	if len(save) > 0 {
		res.m.add("ckpt.save_ms", "ms", median(save), len(save), "in-process SaveRaw of served cold payloads")
		res.m.add("ckpt.load_ms", "ms", median(load), len(load), "in-process LoadRaw of the same")
	}
	return nil
}
