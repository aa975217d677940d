// Package trace defines the canonical in-memory representation of a
// cluster workload trace: machines, jobs, tasks, task events and
// 5-minute usage samples, mirroring the Google clusterdata-v1 model
// described in Section II of the paper, plus the simplified job records
// used for Grid/HPC traces (GWA/PWA).
//
// The task life cycle follows Figure 1 of the paper:
//
//	unsubmitted --submit--> pending --schedule--> running --finish/evict/fail/kill/lost--> dead
//	dead --resubmit--> pending
//
// The StateMachine type enforces exactly those transitions.
package trace

import (
	"cmp"
	"fmt"
	"slices"
)

// EventType enumerates the task events of the Google trace.
type EventType int

// Task event types, in trace order.
const (
	EventSubmit EventType = iota
	EventSchedule
	EventEvict
	EventFail
	EventFinish
	EventKill
	EventLost
	EventUpdate // runtime constraint change (step 3 in Fig 1)
)

var eventNames = [...]string{
	"SUBMIT", "SCHEDULE", "EVICT", "FAIL", "FINISH", "KILL", "LOST", "UPDATE",
}

// String returns the trace spelling of the event type.
func (e EventType) String() string {
	if e < 0 || int(e) >= len(eventNames) {
		return fmt.Sprintf("EVENT(%d)", int(e))
	}
	return eventNames[e]
}

// Terminal reports whether the event ends an execution attempt.
func (e EventType) Terminal() bool {
	switch e {
	case EventEvict, EventFail, EventFinish, EventKill, EventLost:
		return true
	}
	return false
}

// Abnormal reports whether the event is an abnormal completion
// (the paper's evict/fail/kill/lost classes).
func (e EventType) Abnormal() bool {
	return e.Terminal() && e != EventFinish
}

// State enumerates the four task states of Figure 1.
type State int

// Task states.
const (
	StateUnsubmitted State = iota
	StatePending
	StateRunning
	StateDead
)

var stateNames = [...]string{"unsubmitted", "pending", "running", "dead"}

// String returns the lowercase state name used in the paper.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// StateMachine tracks one task's state and validates transitions.
type StateMachine struct{ state State }

// State returns the current state.
func (m *StateMachine) State() State { return m.state }

// Apply transitions on the given event, returning an error for any
// transition Figure 1 does not allow.
func (m *StateMachine) Apply(e EventType) error {
	switch e {
	case EventSubmit:
		// Submission from unsubmitted, or resubmission from dead (step 6).
		if m.state != StateUnsubmitted && m.state != StateDead {
			return fmt.Errorf("trace: SUBMIT in state %s", m.state)
		}
		m.state = StatePending
	case EventSchedule:
		if m.state != StatePending {
			return fmt.Errorf("trace: SCHEDULE in state %s", m.state)
		}
		m.state = StateRunning
	case EventUpdate:
		// Constraint updates are legal while pending or running.
		if m.state != StatePending && m.state != StateRunning {
			return fmt.Errorf("trace: UPDATE in state %s", m.state)
		}
	case EventEvict, EventFail, EventFinish, EventKill, EventLost:
		// Terminal events from running; KILL and LOST may also strike a
		// pending task (user kills queued work, input data disappears).
		if m.state != StateRunning && !((e == EventKill || e == EventLost) && m.state == StatePending) {
			return fmt.Errorf("trace: %s in state %s", e, m.state)
		}
		m.state = StateDead
	default:
		return fmt.Errorf("trace: unknown event %d", int(e))
	}
	return nil
}

// Priority bounds of the Google trace; the paper groups 12 levels into
// low (1-4), middle (5-8) and high (9-12).
const (
	MinPriority = 1
	MaxPriority = 12
)

// PriorityGroup is the paper's three-way priority clustering.
type PriorityGroup int

// Priority groups.
const (
	LowPriority PriorityGroup = iota
	MiddlePriority
	HighPriority
)

// String names the group.
func (g PriorityGroup) String() string {
	switch g {
	case LowPriority:
		return "low"
	case MiddlePriority:
		return "middle"
	case HighPriority:
		return "high"
	}
	return fmt.Sprintf("group(%d)", int(g))
}

// GroupOf maps a priority level (1-12) to its group.
func GroupOf(priority int) PriorityGroup {
	switch {
	case priority <= 4:
		return LowPriority
	case priority <= 8:
		return MiddlePriority
	default:
		return HighPriority
	}
}

// Machine is one host with normalised capacities. The Google trace
// normalises each attribute by the largest machine, so capacities fall
// in a small set of classes (CPU: 0.25/0.5/1; memory: 0.25/0.5/0.75/1).
type Machine struct {
	ID        int
	CPU       float64 // normalised CPU capacity (core-seconds per second)
	Memory    float64 // normalised memory capacity
	PageCache float64 // normalised page-cache capacity (1 for all hosts)
}

// Task is one schedulable unit with its user-customised requirements.
type Task struct {
	JobID    int64
	Index    int   // position within the job
	Submit   int64 // submission time, seconds since trace epoch
	Priority int   // 1..12
	User     int   // submitting user (0 = unknown); one user per job

	// MinCPUClass is a placement constraint: the task may only run on
	// machines whose CPU capacity is at least this value (0 = no
	// constraint). Section II: "all the tasks are submitted with a set
	// of customized constraints".
	MinCPUClass float64

	// Requested resources (normalised).
	CPUReq float64
	MemReq float64

	// Busy is the mean fraction of the CPU request the task actually
	// consumes while running (web services hold memory but leave their
	// CPU reservation mostly idle; batch tasks run hot).
	Busy float64

	// Intrinsic service demand in seconds (how long the task runs once
	// scheduled, absent eviction).
	Duration int64
}

// TaskEvent is one scheduler event in the trace.
type TaskEvent struct {
	Time      int64
	JobID     int64
	TaskIndex int
	Machine   int // machine ID, or -1 when not placed
	Type      EventType
	Priority  int
}

// UsageSample is one 5-minute measurement of a task on a machine.
type UsageSample struct {
	Start, End  int64
	JobID       int64
	TaskIndex   int
	Machine     int
	CPU         float64 // CPU-core-seconds per second used
	MemUsed     float64 // consumed memory (normalised)
	MemAssigned float64 // allocated memory (normalised)
	PageCache   float64 // file-backed memory (normalised)
	Priority    int
}

// Job is the per-job summary used by the workload analyses (Section
// III). For Grid/HPC traces these fields come straight from the
// GWA/SWF records; for Google traces they are derived by grouping task
// events.
type Job struct {
	ID        int64
	Submit    int64 // submission time (s)
	End       int64 // completion of the last task (s)
	Priority  int
	User      int // submitting user (0 = unknown)
	TaskCount int

	NumCPUs float64 // processors allocated (parallel width)
	CPUTime float64 // cumulative CPU-seconds over all processors
	MemAvg  float64 // mean memory used by the job (system-relative units)
}

// Length returns the paper's job length: completion minus submission.
func (j Job) Length() int64 { return j.End - j.Submit }

// Trace is a complete workload/host trace.
type Trace struct {
	System   string // e.g. "Google", "AuverGrid"
	Horizon  int64  // trace duration in seconds
	Machines []Machine
	Jobs     []Job
	Tasks    []Task
	Events   []TaskEvent
	Usage    []UsageSample
}

// SortEvents orders events by time, breaking ties by job, task and
// event type so traces serialise deterministically.
func (t *Trace) SortEvents() {
	slices.SortFunc(t.Events, func(a, b TaskEvent) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		if a.JobID != b.JobID {
			return cmp.Compare(a.JobID, b.JobID)
		}
		if a.TaskIndex != b.TaskIndex {
			return cmp.Compare(a.TaskIndex, b.TaskIndex)
		}
		return cmp.Compare(a.Type, b.Type)
	})
}

// Validate checks internal consistency: event ordering per task obeys
// the state machine, machine references exist, and job summaries have
// sane time ranges. It returns the first problem found.
func (t *Trace) Validate() error {
	machines := make(map[int]bool, len(t.Machines))
	for _, m := range t.Machines {
		if machines[m.ID] {
			return fmt.Errorf("trace: duplicate machine id %d", m.ID)
		}
		if m.CPU <= 0 || m.Memory <= 0 {
			return fmt.Errorf("trace: machine %d has non-positive capacity", m.ID)
		}
		machines[m.ID] = true
	}
	for _, j := range t.Jobs {
		if j.End < j.Submit {
			return fmt.Errorf("trace: job %d ends before submission", j.ID)
		}
		if j.Priority != 0 && (j.Priority < MinPriority || j.Priority > MaxPriority) {
			return fmt.Errorf("trace: job %d priority %d out of range", j.ID, j.Priority)
		}
	}
	// Replay each task's events through the state machine.
	type key struct {
		job  int64
		task int
	}
	events := make(map[key][]TaskEvent)
	for _, e := range t.Events {
		if e.Machine >= 0 && len(machines) > 0 && !machines[e.Machine] {
			return fmt.Errorf("trace: event references unknown machine %d", e.Machine)
		}
		k := key{e.JobID, e.TaskIndex}
		events[k] = append(events[k], e)
	}
	for k, evs := range events {
		slices.SortFunc(evs, func(a, b TaskEvent) int {
			if a.Time != b.Time {
				return cmp.Compare(a.Time, b.Time)
			}
			return cmp.Compare(a.Type, b.Type)
		})
		var sm StateMachine
		for _, e := range evs {
			if err := sm.Apply(e.Type); err != nil {
				return fmt.Errorf("trace: job %d task %d at t=%d: %w", k.job, k.task, e.Time, err)
			}
		}
	}
	for _, u := range t.Usage {
		if u.End <= u.Start {
			return fmt.Errorf("trace: usage sample with non-positive duration for job %d", u.JobID)
		}
		if len(machines) > 0 && !machines[u.Machine] {
			return fmt.Errorf("trace: usage sample references unknown machine %d", u.Machine)
		}
	}
	return nil
}

// JobsFromEvents derives per-job summaries by grouping task events, as
// the paper does for the 25M Google tasks ("we first group the all 25
// million tasks in terms of their job IDs"). A job's submission is the
// earliest SUBMIT among its tasks and its end is the latest terminal
// event. CPU time and memory are folded in from usage samples.
func JobsFromEvents(events []TaskEvent, usage []UsageSample) []Job {
	type agg struct {
		submit, end int64
		priority    int
		tasks       map[int]bool
		cpuTime     float64
		memSum      float64
		memN        int
		maxPar      float64
	}
	jobs := make(map[int64]*agg)
	get := func(id int64) *agg {
		a := jobs[id]
		if a == nil {
			a = &agg{submit: -1, end: -1, tasks: make(map[int]bool)}
			jobs[id] = a
		}
		return a
	}
	for _, e := range events {
		a := get(e.JobID)
		a.tasks[e.TaskIndex] = true
		if e.Priority != 0 {
			a.priority = e.Priority
		}
		if e.Type == EventSubmit && (a.submit < 0 || e.Time < a.submit) {
			a.submit = e.Time
		}
		if e.Type.Terminal() && e.Time > a.end {
			a.end = e.Time
		}
	}
	// Fold usage: CPU-seconds and memory, plus a crude parallel width
	// (max concurrent tasks seen in one sampling window).
	parallel := make(map[int64]map[int64]float64) // job -> window start -> cpu width
	for _, u := range usage {
		a := get(u.JobID)
		dur := float64(u.End - u.Start)
		a.cpuTime += u.CPU * dur
		a.memSum += u.MemUsed
		a.memN++
		w := parallel[u.JobID]
		if w == nil {
			w = make(map[int64]float64)
			parallel[u.JobID] = w
		}
		w[u.Start]++
	}
	out := make([]Job, 0, len(jobs))
	for id, a := range jobs {
		j := Job{
			ID:        id,
			Submit:    a.submit,
			End:       a.end,
			Priority:  a.priority,
			TaskCount: len(a.tasks),
			CPUTime:   a.cpuTime,
		}
		if j.End < j.Submit {
			j.End = j.Submit
		}
		if a.memN > 0 {
			j.MemAvg = a.memSum / float64(a.memN)
		}
		for _, width := range parallel[id] {
			if width > j.NumCPUs {
				j.NumCPUs = width
			}
		}
		if j.NumCPUs == 0 {
			j.NumCPUs = 1
		}
		out = append(out, j)
	}
	slices.SortFunc(out, func(a, b Job) int {
		if a.Submit != b.Submit {
			return cmp.Compare(a.Submit, b.Submit)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}
