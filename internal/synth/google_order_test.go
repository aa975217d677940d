package synth

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// compareSubmitJobIndex is the (Submit, JobID, Index) order
// GenerateGoogleTasks promises.
func compareSubmitJobIndex(a, b trace.Task) int {
	if a.Submit != b.Submit {
		return cmp.Compare(a.Submit, b.Submit)
	}
	if a.JobID != b.JobID {
		return cmp.Compare(a.JobID, b.JobID)
	}
	return cmp.Compare(a.Index, b.Index)
}

// TestSortBySubmitMatchesComparator feeds the same generation-order
// tasks to sortBySubmit and to a comparison sort on (Submit, JobID,
// Index), and requires the same result. The warm-start shape has
// thousands of Submit-0 ties and buckets wider than a second; the
// uncapped shape has one-second buckets and staggers of several hours.
func TestSortBySubmitMatchesComparator(t *testing.T) {
	uncapped := DefaultGoogleConfig(86400)
	uncapped.MaxTasksPerJob = 0
	for _, tc := range []struct {
		name        string
		cfg         GoogleConfig
		minZeroTies int   // tasks at Submit 0, at least
		minStagger  int64 // largest task stagger within a job, at least
		wideBuckets bool  // buckets wider than one second
	}{
		{"warm-start", ScaledGoogleConfig(100, 2*86400), 2000, 0, true},
		{"uncapped", uncapped, 0, 10000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := generateGoogleTasks(tc.cfg, rng.New(5))
			var gen []trace.Task
			for _, ch := range c.chunks {
				gen = append(gen, ch...)
			}
			if len(gen) != c.n || len(c.chunks) < 2 {
				t.Fatalf("%d tasks in %d chunks, n = %d", len(gen), len(c.chunks), c.n)
			}
			// The premise of the sort: generation order ascends in
			// (JobID, Index).
			for i := 1; i < len(gen); i++ {
				a, b := gen[i-1], gen[i]
				if a.JobID > b.JobID || a.JobID == b.JobID && a.Index >= b.Index {
					t.Fatalf("generation order breaks at %d: (%d,%d) then (%d,%d)", i, a.JobID, a.Index, b.JobID, b.Index)
				}
			}
			zeros, stagger := 0, int64(0)
			lo, hi := gen[0].Submit, gen[0].Submit
			var first int64 // Submit of the current job's first task
			for i, task := range gen {
				if task.Submit == 0 {
					zeros++
				}
				if i == 0 || task.JobID != gen[i-1].JobID {
					first = task.Submit
				}
				stagger = max(stagger, task.Submit-first)
				lo, hi = min(lo, task.Submit), max(hi, task.Submit)
			}
			if zeros < tc.minZeroTies || stagger < tc.minStagger || (bucketShift(hi-lo, len(gen)) > 0) != tc.wideBuckets {
				t.Fatalf("not the shape meant: %d Submit-0 tasks, stagger %d s, bucket shift %d",
					zeros, stagger, bucketShift(hi-lo, len(gen)))
			}
			want := slices.Clone(gen)
			slices.SortFunc(want, compareSubmitJobIndex)
			got := c.sortBySubmit()
			if !slices.Equal(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("task %d: got (%d,%d,%d), want (%d,%d,%d)", i,
							got[i].Submit, got[i].JobID, got[i].Index, want[i].Submit, want[i].JobID, want[i].Index)
					}
				}
				t.Fatalf("got %d tasks, want %d", len(got), len(want))
			}
			if c.n != 0 || c.chunks != nil {
				t.Fatal("sortBySubmit left tasks behind")
			}
		})
	}
}

func TestSortBySubmitEmpty(t *testing.T) {
	if got := GenerateGoogleTasks(DefaultGoogleConfig(0), rng.New(1)); got != nil {
		t.Fatalf("zero horizon: %d tasks, want nil", len(got))
	}
}

// taskDigest hashes every field of every task, in order.
func taskDigest(ts []trace.Task) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, t := range ts {
		put(uint64(t.JobID))
		put(uint64(t.Index))
		put(uint64(t.Submit))
		put(uint64(t.Priority))
		put(uint64(t.User))
		put(math.Float64bits(t.MinCPUClass))
		put(math.Float64bits(t.CPUReq))
		put(math.Float64bits(t.MemReq))
		put(math.Float64bits(t.Busy))
		put(uint64(t.Duration))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoogleTasksPinned pins the exact workloads of QuickConfig's two
// Google cells (seed 1, the cells' own streams), so a change in the
// order of the RNG draws or of the tasks fails here. The digests were
// computed with the comparison-sorted generator this one replaced. Go
// may fuse a*b+c into one rounding on arm64, ppc64 and s390x, so the
// float fields are pinned for amd64 only.
func TestGoogleTasksPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pin amd64 floating point")
	}
	workload := DefaultGoogleConfig(86400)
	workload.MaxTasksPerJob = 80
	for _, tc := range []struct {
		name   string
		cfg    GoogleConfig
		stream string
		n      int
		digest string
	}{
		{"workload-cell", workload, "google-workload", 128246,
			"239e28be02baca8b1a1326d77f3680dd879b87acb4a9058506fc576bbb1a8e5e"},
		{"sim-cell", ScaledGoogleConfig(40, 2*86400), "google-sim", 23419,
			"774d44d551a7087d78a74a9493363754087cd337dbe52ae0662979dada086d32"},
	} {
		tasks := GenerateGoogleTasks(tc.cfg, rng.New(1).Child(tc.stream))
		if len(tasks) != tc.n {
			t.Errorf("%s: %d tasks, want %d", tc.name, len(tasks), tc.n)
		}
		if got := taskDigest(tasks); got != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
