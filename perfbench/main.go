// Command perfbench is the repository's benchmark. It measures three
// workloads end to end, checks every output it receives, and with
// --trace 1 reports the cost of each layer of the program instead.
//
//	reproduce    the researcher's path: core regenerates the 15 paper
//	             artifacts in-process (synth, cluster, analysis, render)
//	serve-hot    the client's cached path: a prewarmed cmd/reprod daemon
//	             answers a fixed mix of artifact, table, report and 304
//	             requests over two closed-loop connections
//	serve-mixed  the client's build path: the daemon in replica mode
//	             serves an open-loop hot stream next to a stream of new
//	             small scenarios that must be built and checkpointed
//
// Run it through run.sh, which builds the daemon, the CLI and this
// command from the same source tree:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// Human-readable lines (environment, every metric with its unit and
// sample count) go to standard output, followed by one JSON object on
// the last line with the metrics BENCHMARK.json declares for the mode.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// runEnv is what every workload needs to know about its run.
type runEnv struct {
	seed      uint64
	seconds   float64
	trace     bool
	root      string // source tree the binaries were built from
	work      string // scratch directory for this run, removed at exit
	reproBin  string
	reprodBin string
}

// result is a workload's outcome: its figures and its correctness.
type result struct {
	m         metrics
	attempted int
	failed    int
	problems  []string
	env       []string // extra environment stamp lines
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a correctness violation that is not one operation.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 8 {
		r.problems = append(r.problems, "...")
	}
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var workloads = map[string]func(*runEnv) (*result, error){
	"reproduce":   runReproduce,
	"serve-hot":   runServeHot,
	"serve-mixed": runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload = fl.String("workload", "", "reproduce, serve-hot or serve-mixed")
		seed     = fl.Uint64("seed", 1, "workload seed")
		seconds  = fl.Float64("seconds", 20, "length of the timed phase")
		trace    = fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		root     = fl.String("root", ".", "source tree (holds BENCHMARK.json)")
		bin      = fl.String("bin", "", "directory holding the built repro and reprod")
		work     = fl.String("work", "", "directory for run files")
		commit   = fl.String("commit", "none", "commit the binaries were built from")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 || *bin == "" || *work == "" {
		fmt.Fprintf(stderr, "perfbench: want --workload reproduce|serve-hot|serve-mixed, --seconds > 0, --trace 0|1, -bin and -work\n")
		return 2
	}
	sp, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"), *workload)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	env := &runEnv{
		seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, work: dir,
		reproBin: filepath.Join(*bin, "repro"), reprodBin: filepath.Join(*bin, "reprod"),
	}

	start := time.Now()
	res, err := fn(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	declared := sp.EndToEnd
	if env.trace {
		declared = sp.PerLayer
	}
	out := map[string]any{}
	for _, d := range declared {
		mt, ok := res.m.get(d.Name)
		switch {
		case !ok && !env.trace:
			fmt.Fprintf(stderr, "perfbench: %s measured no %s\n", *workload, d.Name)
			return 1
		case !ok:
			// A layer this workload bypasses did no work.
			mt = metric{Name: d.Name, Unit: d.Unit, Note: "layer not exercised by this workload"}
			res.m.add(mt.Name, mt.Unit, 0, 0, mt.Note)
		case mt.Unit != d.Unit:
			fmt.Fprintf(stderr, "perfbench: %s is in %s, BENCHMARK.json says %s\n", d.Name, mt.Unit, d.Unit)
			return 1
		}
		if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s is not a number\n", d.Name)
			return 1
		}
		out[d.Name] = map[string]any{"value": mt.Value, "unit": mt.Unit}
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%d wall=%.1fs\n",
		*workload, *seed, *seconds, *trace, time.Since(start).Seconds())
	for _, line := range append(envStamp(*root, *commit), res.env...) {
		fmt.Fprintf(w, "# env %s\n", line)
	}
	for _, mt := range res.m.list {
		fmt.Fprintf(w, "%-34s %14.6g %-6s", mt.Name, mt.Value, mt.Unit)
		if mt.N > 0 {
			fmt.Fprintf(w, " n=%d", mt.N)
		}
		if mt.Note != "" {
			fmt.Fprintf(w, "  (%s)", mt.Note)
		}
		fmt.Fprintln(w)
	}
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d  (failed %d)\n", "error_rate", errRate, "ratio", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintf(w, "# FAIL %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		return 1
	}
	return 0
}

// loadSpec reads BENCHMARK.json and checks that it names the workload.
func loadSpec(path, workload string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	found := false
	for _, w := range sp.Workloads {
		found = found || w.Name == workload
	}
	if !found {
		return nil, fmt.Errorf("%s declares no workload %q", path, workload)
	}
	for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
		if !validName(m.Name) {
			return nil, fmt.Errorf("%s: invalid metric name %q", path, m.Name)
		}
	}
	return &sp, nil
}

// envStamp describes the machine and build a result came from.
func envStamp(root, commit string) []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc=%d gomaxprocs_bench=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("cpu=%q", cpu),
		fmt.Sprintf("commit=%s source_sha256=%s", commit, sourceDigest(root)),
	}
}

// sourceDigest hashes the program's Go sources and go.mod outside the
// benchmark's own directory, which identifies the code under test when
// the tree is not a git checkout.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || rel == "go.mod" {
			paths = append(paths, rel)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
