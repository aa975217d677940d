package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMultiReplicaSmoke is the fleet end-to-end: three daemons over one
// shared checkpoint directory, one replica (r2) running with chaos
// injections armed. Every replica must serve byte-identical artifacts,
// each distinct key built exactly once fleet-wide; the injected faults
// must land on r2 and only on r2; /healthz must name each replica; and
// a single SIGTERM must drain all three to a clean exit 0.
func TestMultiReplicaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon boot is seconds-slow")
	}
	ckptDir := t.TempDir()
	scenario := []string{"-machines", "4", "-sim-days", "1", "-workload-days", "1"}

	type daemon struct {
		addr string
		out  strings.Builder
		err  strings.Builder
		done chan int
	}
	boot := func(name string) *daemon {
		d := &daemon{done: make(chan int, 1)}
		args := append([]string{
			"-addr", "127.0.0.1:0",
			"-checkpoint-dir", ckptDir,
			"-replica-id", name,
			"-lease-ttl", "500ms",
		}, scenario...)
		if name == "r2" {
			// The chaos replica: deterministic error injections across
			// the replica fault surface (seed 1 arms ckpt.write at its
			// second hit, see TestChaosRulesPinned). It must still
			// serve correctly.
			args = append(args, "-chaos-seed", "1", "-chaos-prob", "1")
		}
		ready := make(chan string, 1)
		go func() { d.done <- run(args, &d.out, &d.err, ready) }()
		select {
		case d.addr = <-ready:
		case code := <-d.done:
			t.Fatalf("%s exited %d before ready\nstderr: %s", name, code, d.err.String())
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never became ready", name)
		}
		return d
	}

	r0 := boot("r0")
	r1 := boot("r1")
	r2 := boot("r2")
	daemons := map[string]*daemon{"r0": r0, "r1": r1, "r2": r2}

	client := &http.Client{Timeout: 60 * time.Second}
	fetch := func(addr, path string) (int, string) {
		t.Helper()
		resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Each replica identifies itself on /healthz.
	for name, d := range daemons {
		code, body := fetch(d.addr, "/healthz")
		if code != http.StatusOK {
			t.Fatalf("%s /healthz: %d", name, code)
		}
		if !strings.Contains(body, `"replica":"`+name+`"`) {
			t.Fatalf("%s /healthz does not name itself: %s", name, body)
		}
	}

	// Cold artifacts, one replica each. r2's first store write (fig3)
	// lands and its second (fig6) hits its armed ckpt.write fault; r0's
	// and r1's writes in between carry no plan. Were the plan shared by
	// the process, r0's fig4 write would be its second hit instead.
	requested := []string{"fig3", "fig4", "fig5", "fig6"}
	for i, d := range []*daemon{r2, r0, r1, r2} {
		code, body := fetch(d.addr, "/v1/artifacts/"+requested[i])
		if code != http.StatusOK {
			t.Fatalf("/v1/artifacts/%s: %d (%s)", requested[i], code, body)
		}
	}

	// The same artifact from all three replicas: byte-identical, and
	// the shared store means at most one replica simulated it.
	requested = append(requested, "fig2")
	var bodies [3]string
	for i, d := range []*daemon{r0, r1, r2} {
		code, body := fetch(d.addr, "/v1/artifacts/fig2")
		if code != http.StatusOK {
			t.Fatalf("replica %d /v1/artifacts/fig2: %d (%s)", i, code, body)
		}
		bodies[i] = body
	}
	if bodies[0] != bodies[1] || bodies[1] != bodies[2] {
		t.Fatalf("replica bodies differ: lens %d/%d/%d", len(bodies[0]), len(bodies[1]), len(bodies[2]))
	}

	// One build per distinct key fleet-wide: fig2 is built by r0 and
	// read by the others from the shared store. Each replica's counters
	// are its own, so sum over the three expositions. Injected faults
	// are counted on r2 only: its plan rides on its own root context and
	// store, not on the process.
	var builds float64
	for name, d := range daemons {
		code, body := fetch(d.addr, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("%s /metrics: %d", name, code)
		}
		dump, err := obs.ParsePrometheus(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s /metrics does not parse: %v", name, err)
		}
		n, ok := dump.Value(obs.PromName("replica.build.done"))
		if !ok {
			t.Fatalf("%s /metrics has no replica_build_done", name)
		}
		builds += n
		skips, _ := dump.Value(obs.PromName("ckpt.skip"))
		leaseErrs, _ := dump.Value(obs.PromName("replica.lease.err"))
		if name == "r2" {
			if skips < 1 {
				t.Errorf("r2 ckpt_skip = %g, want >= 1: its armed ckpt.write fault never fired", skips)
			}
		} else if skips != 0 || leaseErrs != 0 {
			t.Errorf("%s ckpt_skip = %g, replica_lease_err = %g; want 0 and 0 on a replica without chaos", name, skips, leaseErrs)
		}
	}
	if want := float64(len(requested)); builds != want {
		t.Fatalf("replica_build_done summed over the fleet = %g, want %g (one per distinct key)", builds, want)
	}

	// One SIGTERM reaches every in-process daemon; all must drain to 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	for name, d := range daemons {
		select {
		case code := <-d.done:
			if code != 0 {
				t.Errorf("%s drain exit = %d\nstderr: %s", name, code, d.err.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never drained", name)
		}
	}
}
