// Command reprod is the always-on serving counterpart of cmd/repro: a
// long-running HTTP daemon exposing every experiment artifact of the
// paper "Characterization and Comparison of Cloud versus Grid
// Workloads" (CLUSTER 2012) as JSON, markdown, CSV and gnuplot .dat
// endpoints.
//
// Usage:
//
//	reprod [-addr host:port] [-scale quick|full] [-seed n]
//	       [-machines n] [-sim-days n] [-workload-days n]
//	       [-checkpoint-dir dir] [-prewarm] [-max-inflight n]
//	       [-max-queue n] [-max-contexts n] [-build-timeout d]
//	       [-drain-timeout d] [-metrics-out file]
//	       [-access-log file] [-access-log-sample n]
//	       [-trace-buffer n] [-runtime-sample d]
//	       [-replica-id name] [-lease-ttl d]
//	       [-chaos-seed n] [-chaos-prob p]
//
// -checkpoint-dir makes the daemon a replica: any number of daemons
// over one directory coordinate into one logical cache, and a lone
// daemon is a fleet of one. The first replica to claim a cold artifact
// takes a lease in the checkpoint directory and builds it exactly once
// fleet-wide, siblings read it from the shared store, and a replica
// that dies mid-build has its stale lease taken over after -lease-ttl.
// -replica-id only names the replica (in lease files and /healthz); by
// default the name is unique to the process. -replica-id without
// -checkpoint-dir is rejected: without a shared store there is nothing
// to coordinate through. -chaos-prob arms deterministic error-kind
// fault injections (seeded by -chaos-seed) across the replica failure
// surface, for convergence drills. See README "Running N replicas".
//
// Endpoints (see README "Serving" for the full table): /healthz,
// /metrics (Prometheus text), /debug/trace and /debug/trace/{traceID}
// (span export, JSONL or ?format=chrome), /v1/experiments, /v1/report,
// /v1/artifacts/{id} (?format=json|md), /v1/artifacts/{id}/tables/{t}
// (CSV), /v1/artifacts/{id}/series/{s} (.dat). Artifact routes accept
// ?seed=&machines=&days=&workload_days= scenario overrides, served
// from an LRU of per-config contexts with a hard cap (-max-contexts).
// /v1/predict?system=&hosts=&days=&seed=&k=&hmm= serves live host-load
// predictions (plain text byte-identical to cmd/predict, ?format=json
// for the structured report) through the same gate, coalescer and an
// LRU of finished reports.
//
// Every request is traced: an incoming `traceparent` header joins its
// trace, the response echoes X-Trace-Id, and the request's span tree
// (gate wait, coalescing, experiment, cell builds, checkpoint I/O) is
// retrievable from /debug/trace/{traceID} while it remains in the
// bounded span ring (-trace-buffer). -access-log streams one JSONL
// record per request (-access-log-sample n keeps every nth);
// -runtime-sample publishes goroutine/heap/GC gauges at that period.
//
// Concurrent requests for the same cold artifact are coalesced into
// one build; -checkpoint-dir warm-starts from (and feeds) the same
// checkpoint files cmd/repro writes, so a restart serves from disk
// instead of re-simulating; -prewarm builds every base-scenario
// artifact in the background after the listener is up.
//
// SIGINT/SIGTERM drain gracefully: new requests get 503 immediately,
// in-flight ones finish, and the process exits 0 once idle (or 1 if
// -drain-timeout expires or a second signal forces shutdown).
// Determinism contract: for the same config, every served body is
// byte-identical to the artifact cmd/repro writes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// chaosRules derives what -chaos-seed arms: for each replica chaos site
// in replica.ChaosSites order, one Float64 draw decides (with
// probability prob) whether the site is armed, then one Int64N(20) draw
// picks the failing hit in [1, 20]. Only Error-kind rules: the point is
// proving the daemon degrades and converges, not crashing it; kill-style
// failures are exercised by the test suite, which can afford to lose a
// process. The draw order is pinned by a test, because shifting one
// draw silently changes what every seed arms.
func chaosRules(seed uint64, prob float64) []fault.Rule {
	cs := rng.New(seed).Child("reprod.chaos")
	var rules []fault.Rule
	for _, site := range replica.ChaosSites() {
		if cs.Float64() < prob {
			rules = append(rules, fault.Rule{Site: site, Hit: 1 + cs.Int64N(20), Kind: fault.Error})
		}
	}
	return rules
}

// run is the testable body of the daemon. When ready is non-nil it
// receives the bound listen address once the server is accepting —
// tests pass it to learn the ephemeral port of -addr host:0.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "localhost:8080", "listen address")
		scale        = fs.String("scale", "quick", "base scenario scale: quick or full")
		seed         = fs.Uint64("seed", 0, "override base scenario seed")
		machines     = fs.Int("machines", 0, "override base simulated machine count")
		simDays      = fs.Int("sim-days", 0, "override base simulation horizon (days)")
		workloadDays = fs.Int("workload-days", 0, "override base workload horizon (days)")
		ckptDir      = fs.String("checkpoint-dir", "", "warm-start artifacts from (and persist them to) this directory")
		prewarm      = fs.Bool("prewarm", false, "build every base-scenario artifact in the background at startup")
		maxInflight  = fs.Int("max-inflight", 0, "admission gate: concurrent cache-missing requests (0 = GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 64, "admission gate: queued requests before 429")
		maxContexts  = fs.Int("max-contexts", 8, "hard cap on cached per-scenario contexts (LRU)")
		buildTimeout = fs.Duration("build-timeout", 0, "per-artifact build deadline (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain waits for in-flight requests")
		metricsOut   = fs.String("metrics-out", "", "write the metrics registry and spans as JSONL here at shutdown")
		accessLog    = fs.String("access-log", "", "append structured JSONL access records here (- for stderr)")
		accessSample = fs.Int("access-log-sample", 1, "log every nth request (head-based, deterministic; 1 = all)")
		traceBuffer  = fs.Int("trace-buffer", 4096, "span ring capacity for /debug/trace (bounded memory)")
		runtimePd    = fs.Duration("runtime-sample", 10*time.Second, "runtime gauge sampling period (0 = off)")
		replicaID    = fs.String("replica-id", "", "name this replica in lease files and /healthz (needs -checkpoint-dir; default: unique per process)")
		leaseTTL     = fs.Duration("lease-ttl", 5*time.Second, "distributed build-lease lifetime between heartbeats")
		chaosSeed    = fs.Uint64("chaos-seed", 0, "deterministic fault-injection seed for the replica chaos sites")
		chaosProb    = fs.Float64("chaos-prob", 0, "per-site probability of arming one injected error (0 = chaos off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := core.QuickConfig()
	if *scale == "full" {
		cfg = core.DefaultConfig()
	} else if *scale != "quick" {
		fmt.Fprintf(stderr, "reprod: unknown scale %q\n", *scale)
		return 2
	}
	// Same override semantics as cmd/repro: explicit flags win, and an
	// explicit non-positive value is an error, not an ignored default.
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { passed[f.Name] = true })
	if passed["seed"] {
		cfg.Seed = *seed
	}
	for _, p := range []struct {
		name string
		val  int
		set  func(int)
	}{
		{"machines", *machines, func(n int) { cfg.Machines = n }},
		{"sim-days", *simDays, func(n int) { cfg.SimHorizon = int64(n) * 86400 }},
		{"workload-days", *workloadDays, func(n int) { cfg.WorkloadHorizon = int64(n) * 86400 }},
	} {
		if !passed[p.name] {
			continue
		}
		if p.val <= 0 {
			fmt.Fprintf(stderr, "reprod: -%s must be positive, got %d\n", p.name, p.val)
			return 2
		}
		p.set(p.val)
	}
	if *maxQueue < 0 || *maxContexts < 1 {
		fmt.Fprintf(stderr, "reprod: -max-queue must be >= 0 and -max-contexts >= 1\n")
		return 2
	}
	if *buildTimeout < 0 || *drainTimeout < 0 {
		fmt.Fprintf(stderr, "reprod: timeouts must be non-negative\n")
		return 2
	}
	if *accessSample < 1 {
		fmt.Fprintf(stderr, "reprod: -access-log-sample must be >= 1, got %d\n", *accessSample)
		return 2
	}
	if *traceBuffer < 1 {
		fmt.Fprintf(stderr, "reprod: -trace-buffer must be >= 1, got %d\n", *traceBuffer)
		return 2
	}
	if *runtimePd < 0 {
		fmt.Fprintf(stderr, "reprod: -runtime-sample must be non-negative\n")
		return 2
	}
	if *replicaID != "" && *ckptDir == "" {
		fmt.Fprintf(stderr, "reprod: -replica-id requires -checkpoint-dir: replicas coordinate through the shared store\n")
		return 2
	}
	if *leaseTTL <= 0 {
		fmt.Fprintf(stderr, "reprod: -lease-ttl must be positive\n")
		return 2
	}
	if *chaosProb < 0 || *chaosProb > 1 {
		fmt.Fprintf(stderr, "reprod: -chaos-prob must be in [0, 1], got %g\n", *chaosProb)
		return 2
	}

	rec := obs.NewRecorder()
	// A checkpoint directory makes this daemon a replica: every artifact
	// build goes through the coordinator (shared-store singleflight via
	// leases), the only reader and writer of checkpoints.
	var store *ckpt.Store
	var coord *replica.Coordinator
	if *ckptDir != "" {
		var err error
		if store, err = ckpt.NewStore(*ckptDir, rec.Registry()); err != nil {
			fmt.Fprintf(stderr, "reprod: %v\n", err)
			return 1
		}
		coord = replica.New(replica.Config{
			ID:    *replicaID,
			Store: store,
			TTL:   *leaseTTL,
			Rec:   rec,
		})
		fmt.Fprintf(stderr, "reprod: replica %q coordinating through %s, lease TTL %v\n",
			coord.ID(), *ckptDir, *leaseTTL)
	}

	var accessW io.Writer
	var accessF *os.File
	if *accessLog == "-" {
		accessW = stderr
	} else if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "reprod: %v\n", err)
			return 1
		}
		accessF, accessW = f, f
		defer accessF.Close()
	}

	sampler := obs.StartRuntimeSampler(rec.Registry(), *runtimePd)
	defer sampler.Stop()

	// Chaos mode arms this daemon's plan on the root context, which
	// every build (and so every lease and core fault site) runs under,
	// and on its own store; sibling daemons in one process stay clean.
	baseCtx := context.Background()
	if *chaosProb > 0 {
		rules := chaosRules(*chaosSeed, *chaosProb)
		plan := fault.NewPlan(rules...)
		baseCtx = fault.With(baseCtx, plan)
		store.SetFaults(plan)
		fmt.Fprintf(stderr, "reprod: chaos armed (seed %d, prob %g): %d rule(s) across %d site(s)\n",
			*chaosSeed, *chaosProb, len(rules), len(replica.ChaosSites()))
	}

	// rootCtx is the server's lifetime: artifact builds run under it, so
	// it stays alive through a graceful drain and is cancelled only when
	// the drain times out or a second signal demands a hard stop.
	rootCtx, cancelRoot := context.WithCancelCause(baseCtx)
	defer cancelRoot(nil)

	srv := serve.New(serve.Config{
		Base:            cfg,
		Replica:         coord,
		Rec:             rec,
		BaseContext:     rootCtx,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		MaxContexts:     *maxContexts,
		BuildTimeout:    *buildTimeout,
		AccessLog:       accessW,
		AccessLogSample: *accessSample,
		TraceBuffer:     *traceBuffer,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "reprod: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(stderr, "reprod: serving on http://%s (scale: %d machines, %.0fd sim, %.0fd workload, seed %d)\n",
		ln.Addr(), cfg.Machines, float64(cfg.SimHorizon)/86400, float64(cfg.WorkloadHorizon)/86400, cfg.Seed)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	if *prewarm {
		go func() {
			n, err := srv.Prewarm(rootCtx)
			if err != nil {
				fmt.Fprintf(stderr, "reprod: prewarm stopped after %d artifacts: %v\n", n, err)
				return
			}
			fmt.Fprintf(stderr, "reprod: prewarmed %d artifacts\n", n)
		}()
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	code := 0
	select {
	case err := <-serveErr:
		// The listener died underneath us without a signal.
		fmt.Fprintf(stderr, "reprod: %v\n", err)
		code = 1
	case s := <-sigCh:
		fmt.Fprintf(stderr, "reprod: received %v, draining (in-flight requests finish, new ones get 503)\n", s)
		srv.BeginDrain()
		shCtx, shCancel := context.WithTimeout(context.Background(), *drainTimeout)
		shutdownDone := make(chan error, 1)
		go func() { shutdownDone <- httpSrv.Shutdown(shCtx) }()
		select {
		case err := <-shutdownDone:
			if err != nil {
				fmt.Fprintf(stderr, "reprod: drain timed out (%v), forcing shutdown\n", err)
				cancelRoot(fmt.Errorf("drain timed out"))
				httpSrv.Close()
				code = 1
			} else {
				fmt.Fprintf(stderr, "reprod: drained cleanly\n")
			}
		case s2 := <-sigCh:
			fmt.Fprintf(stderr, "reprod: received %v again, forcing shutdown\n", s2)
			cancelRoot(fmt.Errorf("interrupted twice by %v then %v", s, s2))
			httpSrv.Close()
			<-shutdownDone
			code = 1
		}
		shCancel()
	}
	cancelRoot(nil)

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			werr := rec.WriteMetricsJSONL(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			err = werr
		}
		if err != nil {
			fmt.Fprintf(stderr, "reprod: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(stderr, "wrote metrics to %s\n", *metricsOut)
		}
	}
	return code
}
