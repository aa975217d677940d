package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// hotRevalidateEvery makes every URL of the hot mix appear this many
// times per cycle, once of them as an If-None-Match revalidation.
const hotRevalidateEvery = 8

// hotURL is one distinct URL of the hot mix with the bytes in-process
// core renders for it.
type hotURL struct {
	path string
	kind string // json, md, csv or report
	want []byte
	etag string // learned from the daemon's first 200
}

// hotReq is one slot of the hot cycle.
type hotReq struct {
	u   *hotURL
	inm bool
}

// hotURLs lists the cached base-scenario URLs a client fetches: every
// paper artifact as JSON and as markdown, every table as CSV, and the
// full report, each with the bytes core renders for it in-process.
func hotURLs(cfg core.Config) ([]*hotURL, []*core.Result, error) {
	c := core.NewContext(cfg)
	results, err := core.RunExperiments(context.Background(), c, core.Experiments(), core.RunOptions{Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	var urls []*hotURL
	for _, r := range results {
		js, err := json.Marshal(r)
		if err != nil {
			return nil, nil, err
		}
		var md bytes.Buffer
		if err := core.WriteResultMarkdown(&md, r); err != nil {
			return nil, nil, err
		}
		urls = append(urls,
			&hotURL{path: "/v1/artifacts/" + r.ID, kind: "json", want: js},
			&hotURL{path: "/v1/artifacts/" + r.ID + "?format=md", kind: "md", want: md.Bytes()})
		for _, t := range r.Tables {
			var csv bytes.Buffer
			if err := t.WriteCSV(&csv); err != nil {
				return nil, nil, err
			}
			urls = append(urls, &hotURL{
				path: "/v1/artifacts/" + r.ID + "/tables/" + url.PathEscape(t.ID), kind: "csv", want: csv.Bytes()})
		}
	}
	var rep bytes.Buffer
	if err := core.WriteMarkdownReport(&rep, cfg, results, nil); err != nil {
		return nil, nil, err
	}
	urls = append(urls, &hotURL{path: "/v1/report", kind: "report", want: rep.Bytes()})
	return urls, results, nil
}

// hotCycle is the seeded order in which connections walk the mix: each
// URL hotRevalidateEvery times, one of them a revalidation. Every seed
// yields the same multiset, so runs differ only in order.
func hotCycle(urls []*hotURL, seed uint64) []hotReq {
	var cyc []hotReq
	for _, u := range urls {
		for i := 0; i < hotRevalidateEvery; i++ {
			cyc = append(cyc, hotReq{u: u, inm: i == 0})
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x407))
	r.Shuffle(len(cyc), func(i, j int) { cyc[i], cyc[j] = cyc[j], cyc[i] })
	return cyc
}

// conn is one keep-alive HTTP/1.1 connection driven synchronously from
// the calling goroutine: no transport goroutines hand each request
// around, and every body is read into the same buffer. The generator
// shares the cores with the daemon, so what it spends per request is
// taken from the system it measures.
type conn struct {
	timeout time.Duration
	c       net.Conn
	br      *bufio.Reader
	req     []byte
	buf     bytes.Buffer
}

func newConn(timeout time.Duration) *conn { return &conn{timeout: timeout} }

// get issues one GET to base (http://host:port) and reads the whole
// body, which stays valid until the connection's next get. After an
// error the connection is dropped and the next get dials afresh.
func (c *conn) get(base, path, inm string) (status int, body []byte, etag string, err error) {
	host := strings.TrimPrefix(base, "http://")
	if c.c == nil {
		if c.c, err = net.DialTimeout("tcp", host, c.timeout); err != nil {
			return 0, nil, "", err
		}
		c.br = bufio.NewReaderSize(c.c, 64<<10)
	}
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, host...)
	if inm != "" {
		c.req = append(c.req, "\r\nIf-None-Match: "...)
		c.req = append(c.req, inm...)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	status, etag, err = c.roundTrip()
	if err != nil {
		c.c.Close()
		c.c = nil
		return 0, nil, "", err
	}
	return status, c.buf.Bytes(), etag, nil
}

func (c *conn) roundTrip() (status int, etag string, err error) {
	if err := c.c.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, "", err
	}
	if _, err := c.c.Write(c.req); err != nil {
		return 0, "", err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, "", err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = fmt.Errorf("server closed the connection")
	}
	return resp.StatusCode, resp.Header.Get("ETag"), err
}

// checkHot verifies one hot response: a 200 carries exactly the bytes
// core renders, a 304 carries no body and the URL's ETag.
func checkHot(r hotReq, status int, body []byte, etag string) error {
	if r.inm {
		if status != http.StatusNotModified || len(body) != 0 || etag != r.u.etag {
			return fmt.Errorf("%s revalidation: status %d, %d body bytes, ETag %q (want 304, 0, %q)",
				r.u.path, status, len(body), etag, r.u.etag)
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", r.u.path, status)
	}
	if !bytes.Equal(body, r.u.want) {
		return fmt.Errorf("%s: %d body bytes differ from the %d bytes core renders", r.u.path, len(body), len(r.u.want))
	}
	return nil
}

// learnETags fetches every URL once, checks its bytes and records the
// ETag revalidations must match.
func learnETags(base string, urls []*hotURL, res *result) {
	c := newConn(30 * time.Second)
	for _, u := range urls {
		status, body, etag, err := c.get(base, u.path, "")
		res.attempted++
		if err == nil {
			err = checkHot(hotReq{u: u}, status, body, etag)
		}
		if err == nil && etag == "" {
			err = fmt.Errorf("%s: no ETag", u.path)
		}
		if err != nil {
			res.fail("%v", err)
			continue
		}
		u.etag = etag
	}
}

// sample is one completed request.
type sample struct {
	latMS float64
	bytes int
}

// closedLoop runs conns connections, each sending its next request as
// soon as the previous one is answered, walking the cycle from its own
// offset, until the deadline. Every response is verified.
func closedLoop(base string, cyc []hotReq, conns int, d time.Duration, res *result) ([]sample, time.Duration) {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(10 * time.Second)
			var mine []sample
			var fails []error
			for i := c * len(cyc) / conns; time.Now().Before(end); i++ {
				r := cyc[i%len(cyc)]
				inm := ""
				if r.inm {
					inm = r.u.etag
				}
				t0 := time.Now()
				status, body, etag, err := cn.get(base, r.u.path, inm)
				lat := time.Since(t0)
				if err == nil {
					err = checkHot(r, status, body, etag)
				}
				if err != nil {
					fails = append(fails, err)
				}
				mine = append(mine, sample{latMS: ms(lat), bytes: len(body)})
			}
			mu.Lock()
			all = append(all, mine...)
			for _, err := range fails {
				res.fail("%v", err)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}

// connections is the number of client connections a served workload
// uses: one per core, never more than the generator can drive.
func connections() int { return min(runtime.GOMAXPROCS(0), 2) }

// startDaemons starts the daemon `setups` times, keeping the last one:
// set-up is measured as the median of several starts, because one
// start is one sample of a noisy process launch.
func startDaemons(env *runEnv, setups int, args func(i int) []string, extraEnv []string) (*daemon, []float64, error) {
	var setup []float64
	for i := 0; ; i++ {
		d, dur, err := startDaemon(env.reprodBin, args(i), extraEnv, 60*time.Second)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, dur.Seconds())
		if i == setups-1 {
			return d, setup, nil
		}
		if err := d.stop(30 * time.Second); err != nil {
			return nil, nil, err
		}
	}
}

// daemonSetups is how many times a served workload starts its daemon.
const daemonSetups = 3

// daemonEnv pins the daemon's GOMAXPROCS to this process's, so both
// sides of the loopback see the same cores.
func daemonEnv() []string { return []string{fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))} }

// phase is one timed stretch against a daemon, with the daemon-side
// resources it used.
type phase struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration
	peakMB  float64 // median over rssWindow windows of the window's VmHWM
	windows int
}

// rssWindow is the stretch over which the daemon's peak RSS is taken.
// One peak over a whole phase is decided by whichever build happened to
// meet a GC cycle late; the median of per-second peaks is the peak a
// typical second reaches, and it repeats from run to run.
const rssWindow = time.Second

// measure runs f as a timed phase, charging the daemon's CPU time and
// peak RSS over exactly that stretch.
func measure(d *daemon, f func() ([]sample, time.Duration)) (phase, error) {
	if err := resetPeakRSS(d.pid); err != nil {
		return phase{}, fmt.Errorf("reset daemon peak RSS: %w", err)
	}
	c0, err := procCPU(d.pid)
	if err != nil {
		return phase{}, err
	}
	stop := make(chan struct{})
	peaks := make(chan []float64)
	go func() {
		var ps []float64
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peaks <- ps
				return
			case <-tick.C:
				if p, err := peakRSSMB(d.pid); err == nil {
					ps = append(ps, p)
				}
				_ = resetPeakRSS(d.pid)
			}
		}
	}()
	s, el := f()
	close(stop)
	ps := <-peaks
	c1, err := procCPU(d.pid)
	if err != nil {
		return phase{}, err
	}
	if len(ps) == 0 {
		p, err := peakRSSMB(d.pid)
		if err != nil {
			return phase{}, err
		}
		ps = append(ps, p)
	}
	return phase{samples: s, elapsed: el, cpu: c1 - c0, peakMB: median(ps), windows: len(ps)}, nil
}

func latencies(s []sample) []float64 {
	xs := make([]float64, len(s))
	for i, x := range s {
		xs[i] = x.latMS
	}
	return xs
}

func runServeHot(env *runEnv) (*result, error) {
	res := &result{}
	base := core.QuickConfig()
	urls, results, err := hotURLs(base)
	if err != nil {
		return nil, err
	}
	cyc := hotCycle(urls, env.seed)
	conns := connections()
	res.env = append(res.env, fmt.Sprintf("gomaxprocs_daemon=%d connections=%d hot_urls=%d cycle=%d revalidate=1/%d",
		runtime.GOMAXPROCS(0), conns, len(urls), len(cyc), hotRevalidateEvery))

	args := func(int) []string { return []string{"-addr", "127.0.0.1:0", "-prewarm"} }
	d, setup, err := startDaemons(env, daemonSetups, args, daemonEnv())
	if err != nil {
		return nil, err
	}
	defer d.kill()
	res.m.add("setup_s", "s", median(setup), len(setup), "daemon exec to /healthz 200 and prewarm done")

	learnETags(d.base, urls, res)
	// Warm-up: connections, the daemon's pools and both heaps reach
	// steady state before the clock starts.
	closedLoop(d.base, cyc, conns, time.Second, &result{})

	timed := func(d *daemon, seconds float64) (phase, error) {
		return measure(d, func() ([]sample, time.Duration) {
			return closedLoop(d.base, cyc, conns, time.Duration(seconds*float64(time.Second)), res)
		})
	}
	if !env.trace {
		ph, err := timed(d, env.seconds)
		if err != nil {
			return nil, err
		}
		res.addServedMetrics(ph)
		return res, d.stop(30 * time.Second)
	}

	// Traced run: the first half on the plain daemon, the second on a
	// daemon restarted with its access log, gctrace and a /debug/trace
	// poller, so tracing's own cost is reported next to what it shows.
	plain, err := timed(d, env.seconds/2)
	if err != nil {
		return nil, err
	}
	res.addServedMetrics(plain)
	if err := d.stop(30 * time.Second); err != nil {
		return nil, err
	}
	tr, err := startTraced(env, []string{"-prewarm"})
	if err != nil {
		return nil, err
	}
	defer tr.d.kill()
	closedLoop(tr.d.base, cyc, conns, time.Second, &result{})
	before, err := tr.scrape()
	if err != nil {
		return nil, err
	}
	traced, err := tr.run(func() (phase, error) { return timed(tr.d, env.seconds/2) })
	if err != nil {
		return nil, err
	}
	res.attempted += len(traced.samples)
	all := func(accessRec) bool { return true }
	err = tr.report(res, traced, len(traced.samples), plain, len(plain.samples), before, latencies(traced.samples), all)
	if err != nil {
		return nil, err
	}
	if err := hotInProcess(res, base, urls, results); err != nil {
		return nil, err
	}
	return res, tr.d.stop(30 * time.Second)
}

// addServedMetrics records the end-to-end figures of a closed-loop
// phase.
func (r *result) addServedMetrics(ph phase) {
	n := len(ph.samples)
	r.attempted += n
	r.m.addLatency("", latencies(ph.samples), 0.99, 0.9)
	r.m.add("throughput_rps", "1/s", float64(n)/ph.elapsed.Seconds(), n, "completed requests per second")
	r.m.add("cpu_ms_per_op", "ms", ms(ph.cpu)/float64(n), n, "daemon CPU from /proc/<pid>/stat over the timed phase")
	r.m.add("max_rss_mb", "MB", ph.peakMB, ph.windows, "daemon VmHWM, median of 1-s window peaks")
	r.m.add("serve.resp_kb", "KB", meanKB(ph.samples), n, "mean response body")
}

// meanKB is the mean body size of a sample's responses.
func meanKB(s []sample) float64 {
	total := 0
	for _, x := range s {
		total += x.bytes
	}
	return float64(total) / 1024 / float64(max(len(s), 1))
}
