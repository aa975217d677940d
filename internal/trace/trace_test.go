package trace

import (
	"strings"
	"testing"
)

func TestEventTypeStrings(t *testing.T) {
	cases := map[EventType]string{
		EventSubmit:   "SUBMIT",
		EventSchedule: "SCHEDULE",
		EventEvict:    "EVICT",
		EventFail:     "FAIL",
		EventFinish:   "FINISH",
		EventKill:     "KILL",
		EventLost:     "LOST",
		EventUpdate:   "UPDATE",
	}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
	if !strings.Contains(EventType(99).String(), "99") {
		t.Error("out-of-range event String should embed the value")
	}
}

func TestTerminalAndAbnormal(t *testing.T) {
	if EventSubmit.Terminal() || EventSchedule.Terminal() || EventUpdate.Terminal() {
		t.Error("non-terminal events flagged terminal")
	}
	for _, e := range []EventType{EventEvict, EventFail, EventFinish, EventKill, EventLost} {
		if !e.Terminal() {
			t.Errorf("%s should be terminal", e)
		}
	}
	if EventFinish.Abnormal() {
		t.Error("FINISH is not abnormal")
	}
	for _, e := range []EventType{EventEvict, EventFail, EventKill, EventLost} {
		if !e.Abnormal() {
			t.Errorf("%s should be abnormal", e)
		}
	}
}

func TestStateMachineHappyPath(t *testing.T) {
	var sm StateMachine
	seq := []EventType{EventSubmit, EventSchedule, EventFinish}
	for _, e := range seq {
		if err := sm.Apply(e); err != nil {
			t.Fatalf("apply %s: %v", e, err)
		}
	}
	if sm.State() != StateDead {
		t.Fatalf("final state %s, want dead", sm.State())
	}
}

func TestStateMachineResubmission(t *testing.T) {
	var sm StateMachine
	seq := []EventType{EventSubmit, EventSchedule, EventEvict, EventSubmit, EventSchedule, EventFinish}
	for _, e := range seq {
		if err := sm.Apply(e); err != nil {
			t.Fatalf("apply %s: %v", e, err)
		}
	}
}

func TestStateMachineKillWhilePending(t *testing.T) {
	var sm StateMachine
	for _, e := range []EventType{EventSubmit, EventKill} {
		if err := sm.Apply(e); err != nil {
			t.Fatalf("apply %s: %v", e, err)
		}
	}
	if sm.State() != StateDead {
		t.Fatal("killed pending task should be dead")
	}
}

func TestStateMachineUpdates(t *testing.T) {
	var sm StateMachine
	for _, e := range []EventType{EventSubmit, EventUpdate, EventSchedule, EventUpdate, EventFinish} {
		if err := sm.Apply(e); err != nil {
			t.Fatalf("apply %s: %v", e, err)
		}
	}
}

func TestStateMachineRejectsIllegal(t *testing.T) {
	cases := [][]EventType{
		{EventSchedule},                             // schedule before submit
		{EventFinish},                               // finish before submit
		{EventSubmit, EventFinish},                  // finish while pending
		{EventSubmit, EventSubmit},                  // double submit
		{EventSubmit, EventSchedule, EventSchedule}, // double schedule
		{EventUpdate},                               // update unsubmitted
		{EventSubmit, EventSchedule, EventFinish, EventSchedule}, // schedule dead
		{EventSubmit, EventFail},                                 // fail while pending (only kill/lost allowed)
	}
	for i, seq := range cases {
		var sm StateMachine
		var err error
		for _, e := range seq {
			if err = sm.Apply(e); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("case %d: illegal sequence %v accepted", i, seq)
		}
	}
}

func TestGroupOf(t *testing.T) {
	for p := 1; p <= 4; p++ {
		if GroupOf(p) != LowPriority {
			t.Errorf("priority %d should be low", p)
		}
	}
	for p := 5; p <= 8; p++ {
		if GroupOf(p) != MiddlePriority {
			t.Errorf("priority %d should be middle", p)
		}
	}
	for p := 9; p <= 12; p++ {
		if GroupOf(p) != HighPriority {
			t.Errorf("priority %d should be high", p)
		}
	}
	if LowPriority.String() != "low" || MiddlePriority.String() != "middle" || HighPriority.String() != "high" {
		t.Error("priority group names wrong")
	}
}

func TestJobLength(t *testing.T) {
	j := Job{Submit: 100, End: 350}
	if j.Length() != 250 {
		t.Fatalf("length %d", j.Length())
	}
}

func TestSortEventsDeterministic(t *testing.T) {
	tr := &Trace{Events: []TaskEvent{
		{Time: 10, JobID: 2, Type: EventSubmit},
		{Time: 5, JobID: 1, Type: EventSubmit},
		{Time: 10, JobID: 1, TaskIndex: 1, Type: EventSubmit},
		{Time: 10, JobID: 1, TaskIndex: 0, Type: EventSubmit},
	}}
	tr.SortEvents()
	if tr.Events[0].Time != 5 {
		t.Fatal("events not sorted by time")
	}
	if tr.Events[1].JobID != 1 || tr.Events[1].TaskIndex != 0 {
		t.Fatal("ties not broken by job and task")
	}
}

func validTrace() *Trace {
	return &Trace{
		System:   "test",
		Horizon:  1000,
		Machines: []Machine{{ID: 0, CPU: 1, Memory: 1, PageCache: 1}},
		Jobs:     []Job{{ID: 1, Submit: 0, End: 100, Priority: 3, TaskCount: 1}},
		Events: []TaskEvent{
			{Time: 0, JobID: 1, TaskIndex: 0, Machine: -1, Type: EventSubmit, Priority: 3},
			{Time: 10, JobID: 1, TaskIndex: 0, Machine: 0, Type: EventSchedule, Priority: 3},
			{Time: 100, JobID: 1, TaskIndex: 0, Machine: 0, Type: EventFinish, Priority: 3},
		},
		Usage: []UsageSample{
			{Start: 10, End: 100, JobID: 1, TaskIndex: 0, Machine: 0, CPU: 0.5, MemUsed: 0.1},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"duplicate machine", func(tr *Trace) {
			tr.Machines = append(tr.Machines, Machine{ID: 0, CPU: 1, Memory: 1})
		}},
		{"zero capacity", func(tr *Trace) { tr.Machines[0].CPU = 0 }},
		{"job ends before submit", func(tr *Trace) { tr.Jobs[0].End = -1 }},
		{"priority out of range", func(tr *Trace) { tr.Jobs[0].Priority = 13 }},
		{"unknown machine in event", func(tr *Trace) { tr.Events[1].Machine = 42 }},
		{"illegal event order", func(tr *Trace) {
			tr.Events = append(tr.Events, TaskEvent{Time: 200, JobID: 1, TaskIndex: 0, Machine: 0, Type: EventSchedule})
		}},
		{"bad usage duration", func(tr *Trace) { tr.Usage[0].End = tr.Usage[0].Start }},
		{"unknown machine in usage", func(tr *Trace) { tr.Usage[0].Machine = 42 }},
	}
	for _, c := range cases {
		tr := validTrace()
		c.mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: invalid trace accepted", c.name)
		}
	}
}

func TestJobsFromEvents(t *testing.T) {
	events := []TaskEvent{
		// Job 1: two tasks.
		{Time: 0, JobID: 1, TaskIndex: 0, Type: EventSubmit, Priority: 2},
		{Time: 1, JobID: 1, TaskIndex: 1, Type: EventSubmit, Priority: 2},
		{Time: 5, JobID: 1, TaskIndex: 0, Machine: 0, Type: EventSchedule, Priority: 2},
		{Time: 5, JobID: 1, TaskIndex: 1, Machine: 1, Type: EventSchedule, Priority: 2},
		{Time: 50, JobID: 1, TaskIndex: 0, Machine: 0, Type: EventFinish, Priority: 2},
		{Time: 70, JobID: 1, TaskIndex: 1, Machine: 1, Type: EventFinish, Priority: 2},
		// Job 2: single task, killed.
		{Time: 10, JobID: 2, TaskIndex: 0, Type: EventSubmit, Priority: 9},
		{Time: 12, JobID: 2, TaskIndex: 0, Machine: 0, Type: EventSchedule, Priority: 9},
		{Time: 30, JobID: 2, TaskIndex: 0, Machine: 0, Type: EventKill, Priority: 9},
	}
	usage := []UsageSample{
		{Start: 0, End: 300, JobID: 1, TaskIndex: 0, Machine: 0, CPU: 0.5, MemUsed: 0.2},
		{Start: 0, End: 300, JobID: 1, TaskIndex: 1, Machine: 1, CPU: 0.5, MemUsed: 0.4},
	}
	jobs := JobsFromEvents(events, usage)
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	j1 := jobs[0]
	if j1.ID != 1 || j1.Submit != 0 || j1.End != 70 || j1.TaskCount != 2 {
		t.Fatalf("job1 %+v", j1)
	}
	if j1.Length() != 70 {
		t.Fatalf("job1 length %d", j1.Length())
	}
	if j1.CPUTime != 300 { // 0.5 * 300 * 2
		t.Fatalf("job1 cpu time %v", j1.CPUTime)
	}
	if j1.MemAvg < 0.299 || j1.MemAvg > 0.301 {
		t.Fatalf("job1 mem avg %v", j1.MemAvg)
	}
	if j1.NumCPUs != 2 { // both tasks overlap in the same window
		t.Fatalf("job1 parallel width %v", j1.NumCPUs)
	}
	j2 := jobs[1]
	if j2.ID != 2 || j2.Priority != 9 || j2.End != 30 || j2.NumCPUs != 1 {
		t.Fatalf("job2 %+v", j2)
	}
}

func TestJobsFromEventsNoTerminal(t *testing.T) {
	// A job whose tasks never terminate (still running at trace end)
	// must not produce a negative length.
	events := []TaskEvent{
		{Time: 100, JobID: 5, TaskIndex: 0, Type: EventSubmit, Priority: 1},
	}
	jobs := JobsFromEvents(events, nil)
	if len(jobs) != 1 || jobs[0].Length() != 0 {
		t.Fatalf("jobs %+v", jobs)
	}
}
