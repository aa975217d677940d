// Package workload implements the Section III work-load analyses of
// the paper: priority histograms (Fig 2), job-length CDFs (Fig 3),
// task-length mass-count disparity (Fig 4), submission-interval CDFs
// (Fig 5), per-hour submission statistics with Jain's fairness index
// (Table I) and per-job CPU/memory utilisation (Fig 6).
package workload

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/stats"
	"repro/internal/trace"
)

// PriorityHistogram counts jobs and tasks per priority level 1-12
// (Fig 2). Tasks may be nil when only job counts are needed.
func PriorityHistogram(jobs []trace.Job, tasks []trace.Task) (jobCounts, taskCounts [trace.MaxPriority + 1]int) {
	for _, j := range jobs {
		if j.Priority >= trace.MinPriority && j.Priority <= trace.MaxPriority {
			jobCounts[j.Priority]++
		}
	}
	for _, t := range tasks {
		if t.Priority >= trace.MinPriority && t.Priority <= trace.MaxPriority {
			taskCounts[t.Priority]++
		}
	}
	return jobCounts, taskCounts
}

// GroupShares returns the fraction of jobs in each of the paper's
// three priority groups.
func GroupShares(jobs []trace.Job) [3]float64 {
	var counts [3]int
	total := 0
	for _, j := range jobs {
		if j.Priority >= trace.MinPriority && j.Priority <= trace.MaxPriority {
			counts[trace.GroupOf(j.Priority)]++
			total++
		}
	}
	var out [3]float64
	if total == 0 {
		return out
	}
	for g, c := range counts {
		out[g] = float64(c) / float64(total)
	}
	return out
}

// JobLengths extracts the job lengths in seconds (completion minus
// submission, the paper's definition).
func JobLengths(jobs []trace.Job) []float64 {
	out := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, float64(j.Length()))
	}
	return out
}

// TaskLengths extracts task durations in seconds. For Grid traces,
// where the job is the unit of execution, pass jobs to JobLengths
// instead.
func TaskLengths(tasks []trace.Task) []float64 {
	out := make([]float64, 0, len(tasks))
	for _, t := range tasks {
		out = append(out, float64(t.Duration))
	}
	return out
}

// MassCountSummary condenses a mass-count analysis into the numbers
// the paper prints on its figures.
type MassCountSummary struct {
	JointItems float64 // X of the X/Y joint ratio (small side)
	JointMass  float64 // Y of the X/Y joint ratio
	MMDistance float64 // in the units of the input values
	Mean, Max  float64
	N          int
}

// SummarizeMassCount computes the joint ratio and mm-distance of the
// given sizes (Fig 4, Fig 9, Fig 11, Fig 12, Tables II-III). Returns
// a zero summary for empty or degenerate input.
func SummarizeMassCount(values []float64) MassCountSummary {
	return SummarizeMassCountSorted(values, stats.NewSorted(values))
}

// SummarizeMassCountSorted is SummarizeMassCount for callers that
// already hold a sorted view of values, avoiding a re-sort. The raw
// slice is still consulted for the mean, whose floating-point sum is
// order-sensitive, so the result is bit-identical to the unsorted
// entry point.
func SummarizeMassCountSorted(values []float64, sv *stats.Sorted) MassCountSummary {
	mc := stats.NewMassCountSorted(sv)
	if mc == nil {
		return MassCountSummary{}
	}
	items, mass := mc.JointRatio()
	return MassCountSummary{
		JointItems: items,
		JointMass:  mass,
		MMDistance: mc.MMDistance(),
		Mean:       stats.Mean(values),
		Max:        sv.Max(),
		N:          len(values),
	}
}

// SubmissionIntervals returns the gaps in seconds between consecutive
// job submissions (Fig 5). Jobs must be sorted by submission time;
// unsorted input is handled by sorting a copy of the submit times.
func SubmissionIntervals(jobs []trace.Job) []float64 {
	if len(jobs) < 2 {
		return nil
	}
	times := make([]int64, len(jobs))
	for i, j := range jobs {
		times[i] = j.Submit
	}
	slices.Sort(times)
	out := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		out = append(out, float64(times[i]-times[i-1]))
	}
	return out
}

// HourlyCounts buckets submissions into hours over [0, horizon).
func HourlyCounts(jobs []trace.Job, horizon int64) []float64 {
	n := int(horizon / 3600)
	if n <= 0 {
		n = 1
	}
	counts := make([]float64, n)
	for _, j := range jobs {
		if j.Submit < 0 {
			continue // Go integer division truncates toward zero
		}
		if h := int(j.Submit / 3600); h < n {
			counts[h]++
		}
	}
	return counts
}

// RateStats is one row of Table I.
type RateStats struct {
	Max, Avg, Min float64
	Fairness      float64 // Jain's index of the hourly counts
}

// SubmissionRates computes the Table I statistics of a job stream.
func SubmissionRates(jobs []trace.Job, horizon int64) RateStats {
	counts := HourlyCounts(jobs, horizon)
	return RateStats{
		Max:      stats.Max(counts),
		Avg:      stats.Mean(counts),
		Min:      stats.Min(counts),
		Fairness: stats.JainFairness(counts),
	}
}

// CPUUsage computes Formula (4) for each job: cumulative execution
// time over all processors divided by wall-clock time. Jobs with zero
// length are skipped.
func CPUUsage(jobs []trace.Job) []float64 {
	out := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if l := j.Length(); l > 0 {
			out = append(out, j.CPUTime/float64(l))
		}
	}
	return out
}

// MemoryUsageMB returns per-job memory in megabytes. Google traces
// store normalised values; maxCapGB rescales them against an assumed
// largest-machine capacity (the paper tries 32 GB and 64 GB). Grid
// traces already carry megabyte-scale values, so maxCapGB <= 0 leaves
// them untouched.
func MemoryUsageMB(jobs []trace.Job, maxCapGB float64) []float64 {
	scale := 1.0
	if maxCapGB > 0 {
		scale = maxCapGB * 1024
	}
	out := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if !math.IsNaN(j.MemAvg) {
			out = append(out, j.MemAvg*scale)
		}
	}
	return out
}

// HourOfDayProfile returns the mean submissions for each hour of the
// day (0-23) plus the peak-to-mean ratio — the direct view of the
// diurnal pattern the paper blames for low Grid fairness.
func HourOfDayProfile(jobs []trace.Job, horizon int64) (profile [24]float64, peakToMean float64) {
	counts := HourlyCounts(jobs, horizon)
	var sums [24]float64
	var days [24]int
	for h, c := range counts {
		sums[h%24] += c
		days[h%24]++
	}
	var total float64
	for h := 0; h < 24; h++ {
		if days[h] > 0 {
			profile[h] = sums[h] / float64(days[h])
		}
		total += profile[h]
	}
	if total == 0 {
		return profile, 0
	}
	mean := total / 24
	peak := profile[0]
	for _, v := range profile[1:] {
		if v > peak {
			peak = v
		}
	}
	return profile, peak / mean
}

// UserShares summarises the user population behind a job stream:
// the number of distinct users and the fraction of jobs submitted by
// the k heaviest users. The Google trace attributes each job to one
// user, with a few heavy (programmatic) submitters dominating.
func UserShares(jobs []trace.Job, k int) (users int, topShare float64) {
	counts := make(map[int]int)
	total := 0
	for _, j := range jobs {
		if j.User == 0 {
			continue
		}
		counts[j.User]++
		total++
	}
	if total == 0 {
		return 0, 0
	}
	perUser := make([]int, 0, len(counts))
	for _, c := range counts {
		perUser = append(perUser, c)
	}
	slices.SortFunc(perUser, func(a, b int) int { return cmp.Compare(b, a) })
	if k > len(perUser) {
		k = len(perUser)
	}
	top := 0
	for _, c := range perUser[:k] {
		top += c
	}
	return len(counts), float64(top) / float64(total)
}
