package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// sharedDirStores opens n stores over one directory, as n replica
// processes sharing a checkpoint volume would.
func sharedDirStores(t *testing.T, n int) ([]*Store, []*obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	stores := make([]*Store, n)
	regs := make([]*obs.Registry, n)
	for i := range stores {
		regs[i] = obs.NewRegistry()
		s, err := NewStore(dir, regs[i])
		if err != nil {
			t.Fatalf("NewStore[%d]: %v", i, err)
		}
		s.SetWriter(fmt.Sprintf("r%d", i))
		stores[i] = s
	}
	return stores, regs
}

// TestSharedDirSecondWriterLosesRenameAsHit: with the key already on
// disk, a second replica's Save must discard its copy silently (dup
// counted, no error, file intact).
func TestSharedDirSecondWriterLosesRenameAsHit(t *testing.T) {
	stores, regs := sharedDirStores(t, 2)
	key := Key("shared", "fig2")
	in := payload{Name: "fig2", Values: []float64{1, 2, 3}}
	if _, err := stores[0].Save(key, in); err != nil {
		t.Fatalf("first Save: %v", err)
	}
	if _, err := stores[1].Save(key, in); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	if got := counter(regs[1], "ckpt.dup"); got != 1 {
		t.Fatalf("writer 1 ckpt.dup = %d, want 1", got)
	}
	if got := counter(regs[1], "ckpt.store"); got != 0 {
		t.Fatalf("writer 1 ckpt.store = %d, want 0 (it lost the race)", got)
	}
	var out payload
	if ok, err := load(stores[1], key, &out); !ok || err != nil {
		t.Fatalf("Load after dup: ok=%v err=%v", ok, err)
	}
	if out.Name != in.Name {
		t.Fatalf("payload clobbered: %+v", out)
	}
}

// TestSharedDirConcurrentSaves: many goroutines across two stores
// hammer the same key; nothing errors, the file stays loadable, and no
// temp files leak.
func TestSharedDirConcurrentSaves(t *testing.T) {
	stores, _ := sharedDirStores(t, 2)
	key := Key("shared", "race")
	in := payload{Name: "race", Values: []float64{4, 5}}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := stores[i%2].Save(key, in); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Save: %v", err)
	}
	var out payload
	if ok, err := load(stores[0], key, &out); !ok || err != nil {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if out.Name != "race" {
		t.Fatalf("payload = %+v", out)
	}
	entries, err := os.ReadDir(stores[0].Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
}

// TestWriterSuffixInTempNames: concurrent in-flight temp files must be
// attributable to their writer.
func TestWriterSuffixInTempNames(t *testing.T) {
	stores, _ := sharedDirStores(t, 1)
	f, name, err := stores[0].createTemp()
	if err != nil {
		t.Fatalf("createTemp: %v", err)
	}
	f.Close()
	defer os.Remove(name)
	if !strings.Contains(name, "tmp-r0-") {
		t.Fatalf("temp name %q does not carry writer suffix r0", name)
	}
}

// TestSaveRawLoadRawRoundTrip: the raw-payload path must serve the
// exact bytes Save would have produced, so a replica's store reads are
// byte-identical to the building replica's own.
func TestSaveRawLoadRawRoundTrip(t *testing.T) {
	s, reg := testStore(t)
	in := payload{Name: "raw", Metrics: map[string]float64{"x": 1.25}}
	want, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("raw")
	if dup, err := s.SaveRaw(key, want); dup || err != nil {
		t.Fatalf("SaveRaw: dup=%v err=%v", dup, err)
	}
	got, ok, err := s.LoadRaw(key)
	if !ok || err != nil {
		t.Fatalf("LoadRaw: ok=%v err=%v", ok, err)
	}
	if string(got) != string(want) {
		t.Fatalf("LoadRaw payload = %q, want %q", got, want)
	}
	if counter(reg, "ckpt.hit") != 1 || counter(reg, "ckpt.store") != 1 {
		t.Fatalf("hit/store = %d/%d, want 1/1",
			counter(reg, "ckpt.hit"), counter(reg, "ckpt.store"))
	}
}

// TestCkptWriteFaultSite: an armed ckpt.write rule turns the store
// read-only — Save fails cleanly, nothing lands on disk, and the
// failure counts as a skip (the degraded-mode signal replicas act on).
func TestCkptWriteFaultSite(t *testing.T) {
	t.Parallel()
	s, reg := testStore(t)
	s.SetFaults(fault.NewPlan(fault.Rule{Site: "ckpt.write", Kind: fault.Error}))
	key := Key("blocked")
	_, err := s.Save(key, payload{Name: "blocked"})
	if err == nil {
		t.Fatal("Save under ckpt.write fault succeeded")
	}
	var inj *fault.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want *fault.InjectedError", err)
	}
	if got := counter(reg, "ckpt.skip"); got != 1 {
		t.Fatalf("ckpt.skip = %d, want 1", got)
	}
	if _, ok, _ := s.LoadRaw(key); ok {
		t.Fatal("blocked write still produced a file")
	}
}
