package ckpt

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

type payload struct {
	Name    string
	Values  []float64
	Metrics map[string]float64
}

func testStore(t *testing.T) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s, reg
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// load is LoadRaw plus the JSON decode every reader applies to a hit.
func load(s *Store, key string, v any) (bool, error) {
	b, ok, err := s.LoadRaw(key)
	if !ok {
		return false, err
	}
	return true, json.Unmarshal(b, v)
}

func TestKeyDistinguishesPartBoundaries(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal(`Key("ab","c") == Key("a","bc")`)
	}
	if Key("a") != Key("a") {
		t.Fatal("Key not deterministic")
	}
}

func TestRoundTrip(t *testing.T) {
	s, reg := testStore(t)
	in := payload{
		Name:    "fig7",
		Values:  []float64{1.5, 2.25, -0.125},
		Metrics: map[string]float64{"mean": 3.5},
	}
	key := Key("v1", "fig7", "cfg")
	if _, err := s.Save(key, in); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var out payload
	ok, err := load(s, key, &out)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if out.Name != in.Name || len(out.Values) != len(in.Values) ||
		out.Values[2] != in.Values[2] || out.Metrics["mean"] != in.Metrics["mean"] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if got := counter(reg, "ckpt.store"); got != 1 {
		t.Fatalf("ckpt.store = %d, want 1", got)
	}
	if got := counter(reg, "ckpt.hit"); got != 1 {
		t.Fatalf("ckpt.hit = %d, want 1", got)
	}
}

// TestMissOnAbsentKey: reading an absent key is a plain miss that
// moves no counter, since a reader may poll until another writer
// publishes; ckpt.miss counts the rebuilds a reader reports with Miss.
func TestMissOnAbsentKey(t *testing.T) {
	s, reg := testStore(t)
	var out payload
	for range 3 {
		ok, err := load(s, Key("nope"), &out)
		if ok || err != nil {
			t.Fatalf("Load absent: ok=%v err=%v", ok, err)
		}
	}
	if got := counter(reg, "ckpt.miss") + counter(reg, "ckpt.hit") + counter(reg, "ckpt.corrupt"); got != 0 {
		t.Fatalf("absent-key reads moved counters by %d, want 0", got)
	}
	s.Miss()
	if got := counter(reg, "ckpt.miss"); got != 1 {
		t.Fatalf("ckpt.miss = %d, want 1", got)
	}
}

func ckptFile(t *testing.T, s *Store) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Dir(), "*.ckpt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob: %v (%d matches)", err, len(matches))
	}
	return matches[0]
}

func TestTruncatedFileRejected(t *testing.T) {
	s, reg := testStore(t)
	key := Key("trunc")
	if _, err := s.Save(key, payload{Name: "x", Values: []float64{1, 2, 3}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := ckptFile(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := load(s, key, &out)
	if ok {
		t.Fatal("truncated file loaded as ok")
	}
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation rejection", err)
	}
	if got := counter(reg, "ckpt.corrupt"); got != 1 {
		t.Fatalf("ckpt.corrupt = %d, want 1", got)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("corrupt file not removed")
	}
}

func TestBitFlipRejected(t *testing.T) {
	s, reg := testStore(t)
	key := Key("flip")
	if _, err := s.Save(key, payload{Name: "y", Values: []float64{9, 8, 7}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := ckptFile(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40 // flip a bit inside the JSON payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := load(s, key, &out)
	if ok {
		t.Fatal("bit-flipped file loaded as ok")
	}
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("err = %v, want crc rejection", err)
	}
	if got := counter(reg, "ckpt.corrupt"); got != 1 {
		t.Fatalf("ckpt.corrupt = %d, want 1", got)
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	s, _ := testStore(t)
	key := Key("ver")
	if _, err := s.Save(key, payload{Name: "z"}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := ckptFile(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the header as if written by a future format version.
	text := strings.Replace(string(data), "ckptv1 ", "ckptv2 ", 1)
	if text == string(data) {
		t.Fatal("header did not contain ckptv1")
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := load(s, key, &out)
	if ok {
		t.Fatal("version-bumped file loaded as ok")
	}
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version rejection", err)
	}
	// The bad file was removed, so the next Load is a clean miss.
	ok, err = load(s, key, &out)
	if ok || err != nil {
		t.Fatalf("second Load: ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestNonMarshalableSkipped(t *testing.T) {
	s, reg := testStore(t)
	bad := map[string]float64{"nan": nan()}
	_, err := s.Save(Key("bad"), bad)
	if err == nil {
		t.Fatal("Save of NaN payload succeeded, want marshal error")
	}
	if got := counter(reg, "ckpt.skip"); got != 1 {
		t.Fatalf("ckpt.skip = %d, want 1", got)
	}
	var out map[string]float64
	ok, loadErr := load(s, Key("bad"), &out)
	if ok || loadErr != nil {
		t.Fatalf("Load after skipped save: ok=%v err=%v", ok, loadErr)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestDisabledStoreIsNoop(t *testing.T) {
	var s *Store
	if s.Enabled() {
		t.Fatal("nil store Enabled() = true")
	}
	if _, err := s.Save("k", 1); err != nil {
		t.Fatalf("nil store Save: %v", err)
	}
	var v int
	ok, err := load(s, "k", &v)
	if ok || err != nil {
		t.Fatalf("nil store LoadRaw: ok=%v err=%v", ok, err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	s, _ := testStore(t)
	key := Key("tail")
	if _, err := s.Save(key, payload{Name: "t"}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := ckptFile(t, s)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out payload
	ok, err := load(s, key, &out)
	if ok {
		t.Fatal("file with trailing bytes loaded as ok")
	}
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-bytes rejection", err)
	}
}

// TestCorruptJSONRejected: a file whose header and CRC are intact but
// whose payload is not JSON (a writer bug, not a torn write) is
// rejected, counted corrupt and removed, like any other bad file.
func TestCorruptJSONRejected(t *testing.T) {
	s, reg := testStore(t)
	key := Key("badjson")
	body := []byte("{not json")
	if err := os.WriteFile(s.path(key), append([]byte(header(crc32.ChecksumIEEE(body), len(body))), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err := load(s, key, &payload{})
	if ok {
		t.Fatal("non-JSON payload loaded as ok")
	}
	if err == nil || !strings.Contains(err.Error(), "not valid JSON") {
		t.Fatalf("err = %v, want JSON rejection", err)
	}
	if got := counter(reg, "ckpt.corrupt"); got != 1 {
		t.Fatalf("ckpt.corrupt = %d, want 1", got)
	}
	if _, statErr := os.Stat(s.path(key)); !os.IsNotExist(statErr) {
		t.Fatal("corrupt file not removed")
	}
}

func TestKeysListsOnlyCheckpoints(t *testing.T) {
	s, _ := testStore(t)
	for _, k := range []string{Key("b"), Key("a")} {
		if _, err := s.Save(k, payload{Name: k}); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	// Noise the listing must skip: an in-flight temp file, a foreign
	// file, and a subdirectory.
	for _, name := range []string{"tmp-123.ckpt", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(s.Dir(), "sub.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}

	keys, err := s.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	want := []string{Key("a"), Key("b")}
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}

	var nilStore *Store
	if keys, err := nilStore.Keys(); keys != nil || err != nil {
		t.Fatalf("nil store Keys = %v, %v; want nil, nil", keys, err)
	}
}
