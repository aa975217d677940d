// Command reprobench load-tests the reprod serving daemon the way the
// repo benchmarks the simulator: it drives a deterministic mix of hot
// (cache-served) and cold (build-triggering) artifact requests, measures
// client-side latency quantiles and throughput, then scrapes the
// daemon's own Prometheus /metrics and cross-checks the server-side
// sketch quantiles against what the client observed — the two views
// must agree within the sketch's documented error bound plus network
// overhead.
//
// Usage:
//
//	reprobench [-addr host:port] [-requests n] [-concurrency n]
//	           [-cold-every n] [-machines n] [-sim-days n]
//	           [-workload-days n] [-seed n] [-trace-out file] [-strict]
//
// With no -addr, reprobench self-hosts an in-process daemon on a
// loopback listener (scenario from -machines/-sim-days/-workload-days,
// default a seconds-fast tiny config), so a run needs no running
// service. Against an external -addr the scenario flags are
// ignored and cold requests derive fresh scenarios from the daemon's
// base config via ?seed=.
//
// Output is `go test -bench` text on stdout — one line per traffic
// class with ns/op (mean client latency), req/s, p50_s/p99_s client
// quantiles and srv_p50_s/srv_p99_s server-sketch quantiles.
//
// The cross-check prints to stderr and is advisory by default; -strict
// exits 1 when the server-side quantile exceeds the client-side one
// beyond the documented bound (server time is a strict subset of
// client time, so server > client means the telemetry lies).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// hotArtifact is the artifact the hot class hammers; cold requests ask
// for the same artifact under fresh ?seed= scenarios, forcing a
// context build + experiment run per distinct seed.
const hotArtifact = "fig2"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "", "daemon(s) to benchmark, comma-separated for a replica fleet (empty: self-host in-process)")
		requests     = fs.Int("requests", 256, "total timed requests")
		concurrency  = fs.Int("concurrency", 8, "concurrent client workers")
		coldEvery    = fs.Int("cold-every", 16, "every nth request is cold (fresh ?seed= scenario; 0 = all hot)")
		machines     = fs.Int("machines", 4, "self-host scenario: machines")
		simDays      = fs.Int("sim-days", 1, "self-host scenario: simulation horizon (days)")
		workloadDays = fs.Int("workload-days", 1, "self-host scenario: workload horizon (days)")
		seed         = fs.Uint64("seed", 7, "self-host scenario seed and cold-seed base")
		traceOut     = fs.String("trace-out", "", "write a sample Chrome trace scraped from /debug/trace here")
		strict       = fs.Bool("strict", false, "exit 1 when the server/client quantile cross-check fails")
		timeout      = fs.Duration("timeout", 120*time.Second, "per-request client timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests < 1 || *concurrency < 1 || *coldEvery < 0 {
		fmt.Fprintf(stderr, "reprobench: -requests and -concurrency must be >= 1, -cold-every >= 0\n")
		return 2
	}
	if *machines < 1 || *simDays < 1 || *workloadDays < 1 {
		fmt.Fprintf(stderr, "reprobench: scenario flags must be positive\n")
		return 2
	}

	// -addr accepts a comma-separated replica fleet; requests round-robin
	// across it and the report adds per-replica quantile lines. A single
	// address (or self-hosting) keeps the exact single-daemon output.
	var targets []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			targets = append(targets, a)
		}
	}
	var shutdown func()
	if len(targets) == 0 {
		cfg := core.QuickConfig()
		cfg.Seed = *seed
		cfg.Machines = *machines
		cfg.SimHorizon = int64(*simDays) * 86400
		cfg.WorkloadHorizon = int64(*workloadDays) * 86400
		target, sd, err := selfHost(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "reprobench: %v\n", err)
			return 1
		}
		targets, shutdown = []string{target}, sd
		defer shutdown()
		fmt.Fprintf(stderr, "reprobench: self-hosted daemon on %s\n", target)
	}
	bases := make([]string, len(targets))
	for i, t := range targets {
		bases[i] = "http://" + t
	}
	base := bases[0]
	client := &http.Client{Timeout: *timeout}

	// Warm the hot artifact on every replica so the hot class measures
	// cache service, not one giant first build amortized over the run.
	// Across a fleet sharing a checkpoint store the first warmup builds
	// and the rest read it from the store. Each replica's sketch counts
	// its warmup, so the cross-check needs its client-side latency too.
	warmup := make([]float64, len(bases))
	for r, b := range bases {
		t0 := time.Now()
		code, err := get(client, b+"/v1/artifacts/"+hotArtifact)
		warmup[r] = time.Since(t0).Seconds()
		if err != nil || code != http.StatusOK {
			fmt.Fprintf(stderr, "reprobench: warmup GET %s: status %d err %v\n", b, code, err)
			return 1
		}
	}

	// Timed phase: worker pool draining a deterministic request index.
	// Request i is cold when coldEvery > 0 and (i+1)%coldEvery == 0;
	// each cold request gets its own seed, so each is a genuinely cold
	// scenario (LRU-evicted seeds stay cold if revisited).
	lat := make([]time.Duration, *requests)
	cold := make([]bool, *requests)
	var failures atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	wallStart := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				url := bases[i%len(bases)] + "/v1/artifacts/" + hotArtifact
				if *coldEvery > 0 && (i+1)%*coldEvery == 0 {
					cold[i] = true
					url = fmt.Sprintf("%s?seed=%d", url, *seed+1000+uint64(i))
				}
				t0 := time.Now()
				code, err := get(client, url)
				lat[i] = time.Since(t0)
				if err != nil || code != http.StatusOK {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(wallStart)
	if n := failures.Load(); n > 0 {
		fmt.Fprintf(stderr, "reprobench: %d/%d requests failed\n", n, *requests)
		return 1
	}

	// Client-side stats per class, quantiles by the same ⌈p·n⌉ order
	// statistic stats.Sketch uses, so the two sides are comparable.
	// byReplica buckets every request's latency by the replica that
	// served it (request i went to replica i mod len(bases)).
	var hotLat, coldLat, allLat []float64
	byReplica := make([][]float64, len(bases))
	for i, d := range lat {
		s := d.Seconds()
		allLat = append(allLat, s)
		byReplica[i%len(bases)] = append(byReplica[i%len(bases)], s)
		if cold[i] {
			coldLat = append(coldLat, s)
		} else {
			hotLat = append(hotLat, s)
		}
	}
	emit := func(name string, ls []float64, extra map[string]float64) {
		if len(ls) == 0 {
			return
		}
		sorted := append([]float64(nil), ls...)
		slices.Sort(sorted)
		mean := 0.0
		for _, v := range ls {
			mean += v
		}
		mean /= float64(len(ls))
		line := fmt.Sprintf("%s \t%8d\t%12.0f ns/op\t%10.1f req/s\t%.6f p50_s\t%.6f p99_s",
			name, len(ls), mean*1e9, float64(len(ls))/wall.Seconds(),
			quantile(sorted, 0.5), quantile(sorted, 0.99))
		for _, k := range sortedKeys(extra) {
			line += fmt.Sprintf("\t%.6f %s", extra[k], k)
		}
		fmt.Fprintln(stdout, line)
	}

	// Server-side view: scrape and validate every replica's Prometheus
	// exposition, pull the artifact endpoint's sketch quantiles.
	srvP50 := make([]float64, len(bases))
	srvP99 := make([]float64, len(bases))
	srvCount := make([]int, len(bases))
	for r, b := range bases {
		p50, p99, cnt, err := scrapeQuantiles(client, b)
		if err != nil {
			fmt.Fprintf(stderr, "reprobench: scrape %s: %v\n", b, err)
			return 1
		}
		srvP50[r], srvP99[r], srvCount[r] = p50, p99, cnt
	}
	fmt.Fprintln(stdout, "goos: "+runtime.GOOS)
	fmt.Fprintln(stdout, "goarch: "+runtime.GOARCH)
	fmt.Fprintln(stdout, "pkg: repro/cmd/reprobench")
	emit("BenchmarkServeHot", hotLat, nil)
	emit("BenchmarkServeCold", coldLat, nil)
	if len(bases) == 1 {
		// Single daemon: one aggregate line carrying its server-side
		// quantiles — byte-compatible with the pre-fleet output.
		emit("BenchmarkServeAll", allLat, map[string]float64{
			"srv_p50_s": srvP50[0], "srv_p99_s": srvP99[0],
		})
	} else {
		// Fleet: the aggregate line is pure client-side (N independent
		// server sketches have no common quantile), and each replica
		// gets its own sub-benchmark line pairing the client latencies
		// it served with its own sketch quantiles.
		emit("BenchmarkServeAll", allLat, nil)
		for r := range bases {
			emit(fmt.Sprintf("BenchmarkServeAll/replica=%d", r), byReplica[r], map[string]float64{
				"srv_p50_s": srvP50[r], "srv_p99_s": srvP99[r],
			})
		}
	}

	// Cross-check, per replica (see crossCheck). The reverse gap
	// (client >> server) is expected HTTP/loopback overhead and is
	// reported, not gated.
	bound := serve.LatencySketchRelError
	allOK := true
	for r := range bases {
		cp50, cp99, ok50, ok99 := crossCheck(byReplica[r], warmup[r], srvP50[r], srvP99[r])
		who := "cross-check"
		if len(bases) > 1 {
			who = fmt.Sprintf("cross-check replica %d (%s)", r, targets[r])
		}
		fmt.Fprintf(stderr,
			"reprobench: %s (bound %.2f%% + %.0fms): p50 client %.6fs server %.6fs [%s], p99 client %.6fs server %.6fs [%s], server sketch count %d\n",
			who, bound*100, crossCheckSlack*1e3, cp50, srvP50[r], okStr(ok50), cp99, srvP99[r], okStr(ok99), srvCount[r])
		if *addr == "" && srvCount[r] != *requests+1 { // +1 warmup; only meaningful self-hosted
			fmt.Fprintf(stderr, "reprobench: server sketch count %d, want %d\n", srvCount[r], *requests+1)
			ok50 = false
		}
		allOK = allOK && ok50 && ok99
	}
	if *strict && !allOK {
		fmt.Fprintln(stderr, "reprobench: cross-check FAILED")
		return 1
	}

	if *traceOut != "" {
		if err := fetchTrace(client, base, *traceOut); err != nil {
			fmt.Fprintf(stderr, "reprobench: trace-out: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "reprobench: wrote sample trace to %s\n", *traceOut)
	}
	return 0
}

// crossCheckSlack is the absolute allowance on top of the sketch's
// relative error: the scrape racing the tail, plus timer granularity.
const crossCheckSlack = 2e-3

// crossCheck gates one replica's server sketch quantiles against the
// client latencies of the same requests: the timed ones it served plus
// its warmup GET, which the sketch counts too (leaving the warmup out
// lets a slow warmup build exceed every timed sample at p99). Server
// time nests strictly inside client time, so pointwise the server
// never exceeds the client. Quantiles complicate that: when queueing
// makes the distribution steep at the median (1-core hosts), one rank
// is a multiplicative jump. So each server quantile is compared against
// the client's order statistic two ranks up, with the sketch's
// documented relative error plus crossCheckSlack.
func crossCheck(timed []float64, warmup, srvP50, srvP99 float64) (cp50, cp99 float64, ok50, ok99 bool) {
	sorted := append(append([]float64(nil), timed...), warmup)
	slices.Sort(sorted)
	up2 := func(p float64) float64 {
		rank := min(int(math.Ceil(p*float64(len(sorted))))+2, len(sorted))
		return sorted[rank-1]
	}
	bound := serve.LatencySketchRelError
	ok50 = srvP50 <= up2(0.5)*(1+bound)+crossCheckSlack
	ok99 = srvP99 <= up2(0.99)*(1+bound)+crossCheckSlack
	return quantile(sorted, 0.5), quantile(sorted, 0.99), ok50, ok99
}

// selfHost boots an in-process daemon on an ephemeral loopback port.
func selfHost(cfg core.Config) (addr string, shutdown func(), err error) {
	rootCtx, cancel := context.WithCancel(context.Background())
	srv := serve.New(serve.Config{Base: cfg, BaseContext: rootCtx})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln)
	return ln.Addr().String(), func() {
		httpSrv.Close()
		cancel()
	}, nil
}

// get performs one GET, draining and closing the body (keep-alive
// reuse needs the drain).
func get(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// quantile returns the ⌈p·n⌉-th order statistic of a sorted sample —
// the same convention stats.Sketch documents, so client and server
// quantiles estimate the same number.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// scrapeQuantiles pulls and validates /metrics, returning the artifact
// endpoint's sketch p50/p99 and sample count.
func scrapeQuantiles(client *http.Client, base string) (p50, p99 float64, count int, err error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	dump, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("/metrics failed validation: %w", err)
	}
	ep := obs.Label{Name: "endpoint", Value: "artifacts"}
	p50, ok1 := dump.Value("serve_req_latency_quantile_seconds", ep, obs.Label{Name: "quantile", Value: "0.5"})
	p99, ok2 := dump.Value("serve_req_latency_quantile_seconds", ep, obs.Label{Name: "quantile", Value: "0.99"})
	cnt, ok3 := dump.Value("serve_req_latency_sketch_count", ep)
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, fmt.Errorf("artifact latency series missing from /metrics")
	}
	return p50, p99, int(cnt), nil
}

// fetchTrace writes the daemon's current span ring as a Chrome trace.
func fetchTrace(client *http.Client, base, path string) error {
	resp, err := client.Get(base + "/debug/trace?format=chrome")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/trace: status %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, cErr := io.Copy(f, resp.Body)
	if err := f.Close(); cErr == nil {
		cErr = err
	}
	return cErr
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATION"
}
