package cluster

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchInputs builds a small but non-trivial simulation input set once
// per benchmark.
func benchInputs(b *testing.B) ([]trace.Machine, []trace.Task, Config) {
	b.Helper()
	const n = 25
	horizon := int64(86400)
	s := rng.New(11)
	machines := synth.GoogleMachines(n, s.Child("m"))
	gcfg := synth.ScaledGoogleConfig(n, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("w"))
	return machines, tasks, DefaultConfig(machines, horizon)
}

func benchSimulate(b *testing.B, reg *obs.Registry) {
	b.ReportAllocs()
	_, tasks, cfg := benchInputs(b)
	cfg.Metrics = reg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, tasks, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate vs BenchmarkSimulateInstrumented isolates the
// event-loop counter/histogram overhead of cfg.Metrics.
func BenchmarkSimulate(b *testing.B) { benchSimulate(b, nil) }

func BenchmarkSimulateInstrumented(b *testing.B) {
	benchSimulate(b, obs.NewRegistry())
}

// newPlaceBench builds just enough of a sim to drive the placement
// path: machines, metrics, and (for the indexed variant) the capacity
// index. No event loop, accumulators, or output buffers.
func newPlaceBench(n int, reference bool) *sim {
	s := rng.New(7)
	machines := synth.GoogleMachines(n, s.Child("m"))
	sm := &sim{
		cfg: Config{Machines: machines, Placement: Balanced, ReferencePlacement: reference},
		s:   s.Child("sim"),
		met: newSimMetrics(nil),
	}
	states := make([]machineState, n)
	for i, m := range machines {
		ms := &states[i]
		ms.m, ms.freeCPU, ms.freeMem = m, m.CPU, m.Memory
		sm.machines = append(sm.machines, ms)
	}
	if !reference {
		sm.pidx = newPlaceIndex(sm)
	}
	return sm
}

// benchPlace measures one place+reserve with a bounded working set:
// each op also releases the task placed 64 ops earlier, so free
// capacity keeps changing and the index path pays its update cost.
func benchPlace(b *testing.B, n int, reference bool) {
	b.ReportAllocs()
	sm := newPlaceBench(n, reference)
	ts := rng.New(13)
	tasks := make([]trace.Task, 512)
	for i := range tasks {
		tasks[i] = trace.Task{
			CPUReq: ts.Range(0.02, 0.20),
			MemReq: ts.Range(0.02, 0.20),
		}
		if ts.Bool(0.25) {
			tasks[i].MinCPUClass = 0.5
		}
	}
	type placed struct {
		mi int
		t  *trace.Task
	}
	ring := make([]placed, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tasks[i%len(tasks)]
		if len(ring) == cap(ring) {
			old := ring[0]
			ring = append(ring[:0], ring[1:]...)
			sm.release(old.mi, old.t)
		}
		if mi := sm.place(t); mi >= 0 {
			sm.reserve(mi, t)
			ring = append(ring, placed{mi, t})
		}
	}
}

// BenchmarkPlace scales the placement policies over machine counts up
// to the full-trace 12500 (sub-benchmark names use only slashes, so the
// trailing -GOMAXPROCS suffix of each result line is unambiguous).
func BenchmarkPlace(b *testing.B) {
	for _, n := range []int{100, 1000, synth.FullScaleMachines} {
		b.Run(fmt.Sprintf("ref/%d", n), func(b *testing.B) { benchPlace(b, n, true) })
		b.Run(fmt.Sprintf("indexed/%d", n), func(b *testing.B) { benchPlace(b, n, false) })
	}
}
