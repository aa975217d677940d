package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero requests", []string{"-requests", "0"}, "-requests"},
		{"zero concurrency", []string{"-concurrency", "0"}, "-concurrency"},
		{"negative cold", []string{"-cold-every", "-1"}, "-cold-every"},
		{"zero machines", []string{"-machines", "0"}, "positive"},
		{"unparseable", []string{"-requests", "many"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if code := run(tc.args, &out, &errw); code != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr: %s", tc.args, code, errw.String())
			}
			if !strings.Contains(errw.String(), tc.want) {
				t.Errorf("stderr %q, want it to mention %q", errw.String(), tc.want)
			}
		})
	}
}

// TestRunSelfHosted is the end-to-end benchmark test: self-host a
// daemon, drive a small strict run, and require `go test -bench`-format
// output plus a passing server/client quantile cross-check.
func TestRunSelfHosted(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errw strings.Builder
	code := run([]string{
		"-requests", "48", "-concurrency", "4", "-cold-every", "12",
		"-strict", "-trace-out", tracePath,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, errw.String())
	}
	for _, want := range []string{
		"BenchmarkServeHot", "BenchmarkServeCold", "BenchmarkServeAll",
		"ns/op", "req/s", "p50_s", "p99_s", "srv_p50_s", "srv_p99_s",
		"goos: ", "pkg: repro/cmd/reprobench",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	// Strict mode passed, so the cross-check must report both quantiles ok
	// and the expected sketch population (48 timed + 1 warmup).
	if !strings.Contains(errw.String(), "server sketch count 49") {
		t.Errorf("stderr missing sketch count 49:\n%s", errw.String())
	}
	// The sample trace must be a Chrome trace with span linkage args.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	for _, want := range []string{`"traceEvents"`, `"trace_id"`, `"span_id"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace file missing %s", want)
		}
	}
}

// TestQuantileConvention pins the ⌈p·n⌉ order statistic so the client
// side keeps estimating the same number the server sketch documents.
func TestQuantileConvention(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 2}, {0.25, 1}, {0.75, 3}, {0.99, 4}, {0, 1}, {1, 4}}
	for _, tc := range cases {
		if got := quantile(s, tc.p); got != tc.want {
			t.Errorf("quantile(p=%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

// TestCrossCheckCountsWarmup: the server sketch holds the warmup GET,
// a cold build of the hot artifact, next to the timed requests. When
// that warmup is the slowest request it is the server's p99, so the
// client population must hold it too or the gate reports a violation
// that is only a population mismatch.
func TestCrossCheckCountsWarmup(t *testing.T) {
	var timed []float64
	for i := range 48 {
		if (i+1)%12 == 0 {
			timed = append(timed, 0.30+0.02*float64(i/12)) // cold builds
		} else {
			timed = append(timed, 0.001+0.00001*float64(i)) // hot hits
		}
	}
	const warmup = 0.45
	all := append(append([]float64(nil), timed...), warmup)
	slices.Sort(all)
	srvP50, srvP99 := quantile(all, 0.5), quantile(all, 0.99)
	if srvP99 != warmup {
		t.Fatalf("setup: server p99 %v is not the warmup %v", srvP99, warmup)
	}
	_, cp99, ok50, ok99 := crossCheck(timed, warmup, srvP50, srvP99)
	if !ok50 || !ok99 {
		t.Fatalf("cross-check failed on agreeing populations: ok50=%v ok99=%v (client p99 %v, server p99 %v)",
			ok50, ok99, cp99, srvP99)
	}
	// The gate still bites: a server p99 beyond every client sample.
	if _, _, _, ok99 := crossCheck(timed, warmup, srvP50, 2*warmup); ok99 {
		t.Fatal("cross-check passed a server p99 twice the slowest client request")
	}
}
