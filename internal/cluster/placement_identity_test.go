package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// identityConfig builds a workload with churn and preemption armed so
// the indexed placement path exercises machine-down/up index updates
// and the preemption eligible-class lists, not just the happy path.
// The workload is sized for 22 machines on an 18-machine park, so
// every seed and policy preempts.
func identityConfig(seed uint64, pol Policy) (Config, []trace.Task) {
	machines := synth.GoogleMachines(18, rng.New(seed))
	horizon := int64(12 * 3600)
	cfg := DefaultConfig(machines, horizon)
	cfg.Placement = pol
	cfg.ChurnMTBF = 4 * 3600
	cfg.ChurnDowntime = 1800
	gcfg := synth.ScaledGoogleConfig(22, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, rng.New(seed+100))
	return cfg, tasks
}

// saturatedConfig is churn-free and twice oversubscribed: hundreds of
// tasks are still pending at the horizon, so nearly every pass of
// schedulePending is a change-stamped retry, and the retries'
// preemptions decide the run.
func saturatedConfig(seed uint64, pol Policy) (Config, []trace.Task) {
	machines := synth.GoogleMachines(8, rng.New(seed))
	horizon := int64(4 * 3600)
	cfg := DefaultConfig(machines, horizon)
	cfg.Placement = pol
	gcfg := synth.ScaledGoogleConfig(2*len(machines), horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, rng.New(seed+100))
	return cfg, tasks
}

// TestReferencePlacementByteIdentical pins the tentpole invariant: the
// indexed path — capacity-indexed placement plus change-stamped
// retries — must reproduce the original linear scan, which retries
// every pending task on every machine, event-for-event, sample-for-
// sample and counter-for-counter, across seeds and policies. Any
// divergence in scoring, tie-breaking, index staleness or a skipped
// retry shows up here as the first differing event or sample. Every
// case must preempt at least 50 times, so the retry path that decides
// preemptions is always exercised.
func TestReferencePlacementByteIdentical(t *testing.T) {
	type build func(uint64, Policy) (Config, []trace.Task)
	for _, tc := range []struct {
		prefix string // subtest name prefix
		cfg    build
		pols   []Policy
	}{
		{"", identityConfig, []Policy{Balanced, BestFit, Random}},
		{"saturated/", saturatedConfig, []Policy{Balanced, BestFit}},
	} {
		for _, pol := range tc.pols {
			for _, seed := range []uint64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s%v/seed%d", tc.prefix, pol, seed), func(t *testing.T) {
					cfg, tasks := tc.cfg(seed, pol)
					refCfg := cfg
					refCfg.ReferencePlacement = true
					ref, err := Simulate(refCfg, tasks, rng.New(seed+200))
					if err != nil {
						t.Fatal(err)
					}
					idx, err := Simulate(cfg, tasks, rng.New(seed+200))
					if err != nil {
						t.Fatal(err)
					}
					if ref.Stats.Preemptions < 50 {
						t.Fatalf("only %d preemptions; the case no longer exercises preemptive retries",
							ref.Stats.Preemptions)
					}
					requireSameResult(t, ref, idx)
				})
			}
		}
	}
}

// requireSameResult fails at the first difference between the
// reference and indexed results: events, machine events, the whole
// Stats struct, and every sampled signal bit for bit.
func requireSameResult(t *testing.T, ref, idx *Result) {
	t.Helper()
	if len(ref.Events) != len(idx.Events) {
		t.Fatalf("event counts differ: reference %d vs indexed %d",
			len(ref.Events), len(idx.Events))
	}
	for i := range ref.Events {
		if ref.Events[i] != idx.Events[i] {
			t.Fatalf("event %d differs:\nreference %+v\nindexed   %+v",
				i, ref.Events[i], idx.Events[i])
		}
	}
	if !slices.Equal(ref.MachineEvents, idx.MachineEvents) {
		t.Fatalf("machine events differ: %d vs %d",
			len(ref.MachineEvents), len(idx.MachineEvents))
	}
	if !reflect.DeepEqual(ref.Stats, idx.Stats) {
		t.Fatalf("stats differ:\nreference %+v\nindexed   %+v", ref.Stats, idx.Stats)
	}
	requireSameSeries(t, "pending", ref.Pending, idx.Pending)
	for mi := range ref.Machines {
		rm, im := ref.Machines[mi], idx.Machines[mi]
		for g := range rm.CPUByGroup {
			requireSameSeries(t, fmt.Sprintf("machine %d CPU group %d", mi, g), rm.CPUByGroup[g], im.CPUByGroup[g])
			requireSameSeries(t, fmt.Sprintf("machine %d Mem group %d", mi, g), rm.MemByGroup[g], im.MemByGroup[g])
		}
		requireSameSeries(t, fmt.Sprintf("machine %d MemAssigned", mi), rm.MemAssigned, im.MemAssigned)
		requireSameSeries(t, fmt.Sprintf("machine %d PageCache", mi), rm.PageCache, im.PageCache)
		requireSameSeries(t, fmt.Sprintf("machine %d Running", mi), rm.Running, im.Running)
	}
}

func requireSameSeries(t *testing.T, what string, ref, idx *timeseries.Series) {
	t.Helper()
	if ref.Start != idx.Start || ref.Step != idx.Step || len(ref.Values) != len(idx.Values) {
		t.Fatalf("%s: shape differs", what)
	}
	for k, v := range ref.Values {
		if math.Float64bits(v) != math.Float64bits(idx.Values[k]) {
			t.Fatalf("%s sample %d differs: %v vs %v", what, k, v, idx.Values[k])
		}
	}
}

// TestRetryChangedMatchesFullTry pins the two orderings a narrowed
// retry must keep. Whole runs seldom reach them, because two changed
// machines rarely fit, or can be cleared for, the same pending task at
// once: a placement tie goes to the lowest changed index, and
// preemption tries the changed machines in ascending index order.
func TestRetryChangedMatchesFullTry(t *testing.T) {
	machines := make([]trace.Machine, 6)
	for i := range machines {
		machines[i] = trace.Machine{ID: i, CPU: 1, Memory: 1, PageCache: 1}
	}
	for _, tc := range []struct {
		name   string
		refill bool // start low-priority work on the freed machines
	}{
		{"placement tie", false},
		{"preemption order", true},
	} {
		// try fills every machine with high-priority work, fails a
		// mid-priority task there, then frees machines 4 and 2 (and
		// refills them), and retries it — narrowed, or as a full try.
		try := func(narrow bool) (int, []trace.TaskEvent) {
			sm, err := newSim(DefaultConfig(machines, 86400), rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			tasks := make([]trace.Task, 0, 9)
			startOn := func(now int64, mi, prio int) {
				tasks = append(tasks, trace.Task{JobID: int64(prio), Index: mi, Priority: prio,
					CPUReq: 1, MemReq: 1, Duration: 3600})
				sm.start(now, pendingTask{task: &tasks[len(tasks)-1]}, mi)
			}
			for mi := range machines {
				startOn(0, mi, 9)
			}
			p := pendingTask{task: &trace.Task{JobID: 5, Priority: 5, CPUReq: 0.5, MemReq: 0.5}}
			if mi := sm.try(0, &p); mi >= 0 {
				t.Fatalf("task placed on full machine %d", mi)
			}
			for _, mi := range []int{4, 2} {
				sm.evict(60, sm.machines[mi].running[0])
				if tc.refill {
					startOn(60, mi, 0)
				}
			}
			if !narrow {
				p.tried = 0
			}
			return sm.try(120, &p), sm.out
		}
		t.Run(tc.name, func(t *testing.T) {
			full, fullEvs := try(false)
			narrowed, narrowedEvs := try(true)
			if full != 2 || narrowed != full {
				t.Fatalf("full try chose machine %d, narrowed retry %d; want 2 for both", full, narrowed)
			}
			if !slices.Equal(fullEvs, narrowedEvs) {
				t.Fatalf("events differ:\nfull     %+v\nnarrowed %+v", fullEvs, narrowedEvs)
			}
		})
	}
}

// TestEventQueueOrdering checks the 4-ary heap against its contract
// directly: pops come out in strictly increasing (time, seq) order for
// an adversarial mix of duplicate times and interleaved push/pop.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	s := rng.New(42)
	var seq int64
	push := func(time int64) {
		q.push(simEvent{time: time, seq: seq})
		seq++
	}
	// Bulk phase: many duplicate timestamps.
	for i := 0; i < 2000; i++ {
		push(s.Int64N(50))
	}
	// Interleaved phase: pop a few, push a few, like the live loop.
	popped := make([]simEvent, 0, 4000)
	for q.len() > 0 {
		e := q.pop()
		popped = append(popped, e)
		if len(popped) < 1000 && s.Bool(0.5) {
			push(e.time + s.Int64N(20))
		}
	}
	for i := 1; i < len(popped); i++ {
		a, b := popped[i-1], popped[i]
		if b.time < a.time {
			t.Fatalf("pop %d out of time order: %d after %d", i, b.time, a.time)
		}
		if b.time == a.time && b.seq < a.seq {
			t.Fatalf("pop %d breaks FIFO within time %d: seq %d after %d",
				i, b.time, b.seq, a.seq)
		}
	}
}
