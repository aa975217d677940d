// Command repro regenerates every table and figure of the paper
// "Characterization and Comparison of Cloud versus Grid Workloads"
// (CLUSTER 2012) from the calibrated synthetic models.
//
// Usage:
//
//	repro [-scale quick|full] [-only fig3,table1] [-out dir] [-check]
//	      [-seed n] [-machines n] [-sim-days n] [-workload-days n]
//	      [-parallel n] [-metrics-out file] [-trace-out file]
//	      [-pprof addr] [-progress] [-exp-timeout d] [-keep-going]
//	      [-checkpoint-dir dir]
//
// Tables print to stdout; with -out, every figure's data series is
// written as a gnuplot-ready .dat file and every table as .csv. With
// -check, the measured metrics are verified against the paper's
// acceptance bands and the exit status reflects the verdict.
//
// Experiments run on a bounded worker pool (-parallel, default
// GOMAXPROCS); output order, tables and data files are byte-identical
// at every worker count because each experiment is a pure function of
// (seed, label)-derived random streams. -parallel 1 runs strictly
// serially.
//
// Robustness: -exp-timeout bounds each experiment's wall time;
// -keep-going annotates failed experiments "FAILED: <cause>" (exit
// code 3) instead of aborting the run; -checkpoint-dir persists each
// finished experiment so an interrupted run resumed with the same
// directory rebuilds only the missing artifacts. Checkpointed builds
// take a lease in the directory (the same one cmd/reprod replicas
// use), so concurrent runs and daemons sharing it build each
// experiment once; a run killed outright (SIGKILL) leaves leases on
// its in-flight experiments, which a resumed run takes over after at
// most one lease TTL (5s). SIGINT/SIGTERM cancel the run
// cooperatively, release its leases, flush -metrics-out/-trace-out,
// and exit with 128+signum (130 for SIGINT).
//
// Observability (-metrics-out, -trace-out, -pprof, -progress) is
// strictly additive: .dat/.csv files, metric values and all stdout up
// to the optional trailing timing summary are byte-identical with
// instrumentation on or off (enforced by
// TestInstrumentationByteIdentical). -metrics-out writes counters,
// gauges, histograms and spans as JSONL; -trace-out writes a Chrome
// trace_event file loadable in chrome://tracing or Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/report"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// exitKeepGoingFailures is the exit code when -keep-going finished the
// run but one or more experiments failed and were annotated.
const exitKeepGoingFailures = 3

// run is the testable body of the CLI. Every experiment runs under a
// context derived from parent, so whatever parent carries (a test's
// fault plan) reaches each experiment and artifact build.
func run(parent context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale        = fs.String("scale", "quick", "reproduction scale: quick or full")
		only         = fs.String("only", "", "comma-separated experiment IDs (default: all)")
		out          = fs.String("out", "", "directory for .dat/.csv outputs")
		seed         = fs.Uint64("seed", 0, "override random seed")
		machines     = fs.Int("machines", 0, "override simulated machine count")
		simDays      = fs.Int("sim-days", 0, "override simulation horizon (days)")
		workloadDays = fs.Int("workload-days", 0, "override workload horizon (days)")
		parallel     = fs.Int("parallel", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial)")
		verbose      = fs.Bool("v", false, "print measured metrics")
		check        = fs.Bool("check", false, "verify metrics against the paper's acceptance bands")
		extensions   = fs.Bool("extensions", false, "also run the extension analyses (periodicity, prediction, queueing, robustness)")
		markdown     = fs.String("markdown", "", "write a Markdown report of all tables to this file")
		list         = fs.Bool("list", false, "list available experiments and exit")
		metricsOut   = fs.String("metrics-out", "", "write metrics and spans as JSONL to this file")
		traceOut     = fs.String("trace-out", "", "write a Chrome trace_event file to this file")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		progress     = fs.Bool("progress", false, "print per-experiment completion progress to stderr")
		expTimeout   = fs.Duration("exp-timeout", 0, "per-experiment deadline (0 = none)")
		keepGoing    = fs.Bool("keep-going", false, "annotate failed experiments instead of aborting the run")
		ckptDir      = fs.String("checkpoint-dir", "", "persist finished experiments here and resume from them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		for _, e := range core.Extensions() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := core.QuickConfig()
	if *scale == "full" {
		cfg = core.DefaultConfig()
	} else if *scale != "quick" {
		fmt.Fprintf(stderr, "repro: unknown scale %q\n", *scale)
		return 2
	}
	// Overrides apply when the flag was passed, not when it is non-zero:
	// -seed 0 is a legal explicit seed, while an explicit zero or
	// negative -machines/-sim-days/-workload-days is an error rather
	// than a silently ignored value.
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { passed[f.Name] = true })
	if passed["seed"] {
		cfg.Seed = *seed
	}
	if passed["machines"] {
		if *machines <= 0 {
			fmt.Fprintf(stderr, "repro: -machines must be positive, got %d\n", *machines)
			return 2
		}
		cfg.Machines = *machines
	}
	if passed["sim-days"] {
		if *simDays <= 0 {
			fmt.Fprintf(stderr, "repro: -sim-days must be positive, got %d\n", *simDays)
			return 2
		}
		cfg.SimHorizon = int64(*simDays) * 86400
	}
	if passed["workload-days"] {
		if *workloadDays <= 0 {
			fmt.Fprintf(stderr, "repro: -workload-days must be positive, got %d\n", *workloadDays)
			return 2
		}
		cfg.WorkloadHorizon = int64(*workloadDays) * 86400
	}
	if *expTimeout < 0 {
		fmt.Fprintf(stderr, "repro: -exp-timeout must be non-negative, got %v\n", *expTimeout)
		return 2
	}

	// Open observability outputs up front so a bad path fails before
	// the (potentially minutes-long) run, not after it.
	var rec *obs.Recorder
	var metricsFile, traceFile *os.File
	if *metricsOut != "" || *traceOut != "" {
		rec = obs.NewRecorder()
		var err error
		if *metricsOut != "" {
			if metricsFile, err = os.Create(*metricsOut); err != nil {
				fmt.Fprintf(stderr, "repro: %v\n", err)
				return 1
			}
			defer metricsFile.Close()
		}
		if *traceOut != "" {
			if traceFile, err = os.Create(*traceOut); err != nil {
				fmt.Fprintf(stderr, "repro: %v\n", err)
				return 1
			}
			defer traceFile.Close()
		}
	}
	var coord *replica.Coordinator
	if *ckptDir != "" {
		store, err := ckpt.NewStore(*ckptDir, rec.Registry())
		if err != nil {
			fmt.Fprintf(stderr, "repro: %v\n", err)
			return 1
		}
		coord = replica.New(replica.Config{Store: store, Rec: rec})
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "repro: pprof: %v\n", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "pprof: serving on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) //nolint — DefaultServeMux carries the pprof handlers
	}

	// Interrupt handling: the first SIGINT/SIGTERM cancels the root
	// context so experiments (and the simulator event loop) stop at
	// their next cancellation poll; finished checkpoints are already on
	// disk, and the flush below still writes -metrics-out/-trace-out
	// before the process exits with 128+signum.
	rootCtx, cancelRoot := context.WithCancelCause(parent)
	defer cancelRoot(nil)
	var gotSignal atomic.Value
	sigCh := make(chan os.Signal, 2)
	sigDone := make(chan struct{})
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigCh)
		close(sigDone)
	}()
	go func() {
		select {
		case s := <-sigCh:
			gotSignal.Store(s)
			fmt.Fprintf(stderr, "repro: received %v, cancelling (checkpoints already on disk)\n", s)
			cancelRoot(fmt.Errorf("interrupted by %v", s))
		case <-sigDone:
		}
	}()

	code := runExperiments(rootCtx, cfg, runParams{
		stdout: stdout, stderr: stderr,
		rec: rec, coord: coord,
		only: *only, extensions: *extensions,
		parallel: *parallel, expTimeout: *expTimeout, keepGoing: *keepGoing,
		verbose: *verbose, check: *check, progress: *progress,
		out: *out, markdown: *markdown,
	})

	// Flush observability on every exit path — including failures and
	// interrupts — so no buffer is lost.
	if metricsFile != nil {
		if err := writeAndClose(metricsFile, rec.WriteMetricsJSONL); err != nil {
			fmt.Fprintf(stderr, "repro: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(stderr, "wrote metrics to %s\n", *metricsOut)
		}
	}
	if traceFile != nil {
		if err := writeAndClose(traceFile, rec.WriteChromeTrace); err != nil {
			fmt.Fprintf(stderr, "repro: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(stderr, "wrote trace to %s\n", *traceOut)
		}
	}
	if s, ok := gotSignal.Load().(os.Signal); ok {
		if num, ok := s.(syscall.Signal); ok {
			return 128 + int(num)
		}
		return 130
	}
	return code
}

// runParams carries the post-parse options of one invocation.
type runParams struct {
	stdout, stderr io.Writer
	rec            *obs.Recorder
	coord          *replica.Coordinator
	only           string
	extensions     bool
	parallel       int
	expTimeout     time.Duration
	keepGoing      bool
	verbose        bool
	check          bool
	progress       bool
	out            string
	markdown       string
}

// runExperiments is the body of a run between flag parsing and the
// final observability flush: select experiments, run them through the
// fault-tolerant runner, emit results in registry order, then the
// optional markdown/check/timing stages.
func runExperiments(rootCtx context.Context, cfg core.Config, p runParams) int {
	stdout, stderr, rec := p.stdout, p.stderr, p.rec

	experiments := core.Experiments()
	if p.extensions {
		experiments = append(experiments, core.Extensions()...)
	}
	if p.only != "" {
		var selected []core.Experiment
		for _, id := range strings.Split(p.only, ",") {
			e, err := core.FindAny(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(stderr, "repro: %v\n", err)
				return 2
			}
			selected = append(selected, e)
		}
		experiments = selected
	}

	ctx := core.NewContext(cfg)
	ctx.SetRecorder(rec)
	fmt.Fprintf(stdout, "reproduction scale: %d machines, %.0fd sim, %.0fd workload, seed %d\n\n",
		cfg.Machines, float64(cfg.SimHorizon)/86400, float64(cfg.WorkloadHorizon)/86400, cfg.Seed)

	// Progress lines go to stderr (stdout stays byte-identical) and are
	// serialised: completion order is nondeterministic under -parallel.
	var progressMu sync.Mutex
	var progressDone int
	reportProgress := func(id string, elapsed time.Duration) {
		if !p.progress {
			return
		}
		progressMu.Lock()
		progressDone++
		fmt.Fprintf(stderr, "progress: %s done in %.1fs [%d/%d]\n", id, elapsed.Seconds(), progressDone, len(experiments))
		progressMu.Unlock()
	}

	// Wrap each experiment to record its own wall time; results are
	// emitted in registry order after the pool drains, and the
	// per-label child streams keep the output byte-identical at every
	// worker count.
	runSpan := rec.Span("stage:experiments", obs.CatStage, obs.AutoTID)
	durs := make([]time.Duration, len(experiments))
	timed := make([]core.Experiment, len(experiments))
	for i, e := range experiments {
		timed[i] = core.Experiment{ID: e.ID, Title: e.Title, Run: func(c *core.Context) (*core.Result, error) {
			start := time.Now()
			res, err := e.Run(c)
			durs[i] = time.Since(start)
			if err == nil {
				reportProgress(e.ID, durs[i])
			}
			return res, err
		}}
	}
	results, err := core.RunExperiments(rootCtx, ctx, timed, core.RunOptions{
		Workers:    p.parallel,
		ExpTimeout: p.expTimeout,
		KeepGoing:  p.keepGoing,
		Ckpt:       p.coord,
	})
	runSpan.End()
	failed := 0
	for i, res := range results {
		if res.Failed() {
			failed++
		}
		if code := emitResult(stdout, stderr, experiments[i].Title, res, durs[i], p.verbose, p.out); code != 0 {
			return code
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "repro: %v\n", err)
		return 1
	}

	if p.markdown != "" {
		sp := rec.Span("stage:markdown", obs.CatStage, obs.AutoTID)
		mdErr := writeMarkdownReport(p.markdown, cfg, results, timingRows(rec))
		sp.End()
		if mdErr != nil {
			fmt.Fprintf(stderr, "repro: %v\n", mdErr)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", p.markdown)
	}

	code := 0
	if failed > 0 {
		fmt.Fprintf(stderr, "repro: %d of %d experiments FAILED (kept going)\n", failed, len(results))
		code = exitKeepGoingFailures
	}

	if p.check {
		crs := core.Check(results)
		if err := core.RenderChecks(stdout, crs); err != nil {
			fmt.Fprintf(stderr, "repro: %v\n", err)
			return 1
		}
		if pass, total := core.Passed(crs); pass < total && code == 0 {
			code = 1
		}
	}

	// The timing summary is the single intentionally-additive stdout
	// block: everything above it is byte-identical with or without
	// instrumentation, and the marker line lets tests (and scripts)
	// strip it.
	if rec != nil && p.verbose {
		fmt.Fprintf(stdout, "=== timing summary\n")
		if err := report.TimingTable(timingRows(rec)).Render(stdout); err != nil {
			fmt.Fprintf(stderr, "repro: render timing: %v\n", err)
			return 1
		}
	}
	return code
}

// writeAndClose runs the writer and closes the file exactly once
// (the deferred Close of an already-closed *os.File is a harmless
// ErrClosed), reporting the first error.
func writeAndClose(f *os.File, write func(io.Writer) error) error {
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// timingRows converts the recorder's experiment/artifact/stage span
// summaries into the report table's rows, in first-recorded order.
func timingRows(rec *obs.Recorder) []report.TimingRow {
	var rows []report.TimingRow
	for _, s := range rec.Summarize() {
		switch s.Cat {
		case obs.CatExperiment, obs.CatArtifact, obs.CatStage:
			rows = append(rows, report.TimingRow{Name: s.Name, Count: s.Count, Wall: s.Wall})
		}
	}
	return rows
}

// emitResult prints one experiment's tables, notes and metrics and
// saves its data files. Metric keys are sorted so verbose output is
// stable run-to-run. A keep-going failure placeholder prints its cause
// and writes nothing. Returns the process exit code (0 on success).
func emitResult(stdout, stderr io.Writer, title string, res *core.Result, elapsed time.Duration, verbose bool, outDir string) int {
	fmt.Fprintf(stdout, "=== %s (%.1fs)\n", title, elapsed.Seconds())
	if res.Failed() {
		fmt.Fprintf(stdout, "  FAILED: %s\n\n", res.Err)
		return 0
	}
	for _, tbl := range res.Tables {
		if err := tbl.Render(stdout); err != nil {
			fmt.Fprintf(stderr, "repro: render: %v\n", err)
			return 1
		}
	}
	for _, note := range res.Notes {
		fmt.Fprintf(stdout, "  note: %s\n", note)
	}
	if verbose {
		for _, k := range core.SortedMetricKeys(res.Metrics) {
			fmt.Fprintf(stdout, "  metric %s = %.4g\n", k, res.Metrics[k])
		}
	}
	if outDir != "" {
		for _, tbl := range res.Tables {
			if _, err := tbl.SaveCSV(outDir); err != nil {
				fmt.Fprintf(stderr, "repro: %v\n", err)
				return 1
			}
		}
		for _, s := range res.Series {
			path, err := s.SaveDAT(outDir)
			if err != nil {
				fmt.Fprintf(stderr, "repro: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "  wrote %s\n", path)
		}
	}
	fmt.Fprintln(stdout)
	return 0
}

// writeMarkdownReport renders every result's tables, notes and metrics
// as one Markdown document via the shared core renderer (the same one
// the serving daemon uses, so -markdown files and served reports are
// byte-identical for the same config). The file is closed exactly once
// and a close (flush) error is reported unless a write error precedes
// it.
func writeMarkdownReport(path string, cfg core.Config, results []*core.Result, timing []report.TimingRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := core.WriteMarkdownReport(f, cfg, results, timing)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
