// Package ckpt provides content-addressed on-disk checkpointing of
// experiment artifacts so an interrupted run can resume rebuilding
// only what is missing.
//
// Keys are SHA-256 digests of everything that determines an artifact's
// bytes (schema version, experiment ID, full config), so a config or
// code-schema change silently misses instead of serving stale results.
// Files carry a versioned header plus a CRC32 of the payload and are
// written via temp-file + atomic rename, so a crash mid-write leaves
// either the old file or no file — never a torn one. Corrupt, truncated
// or version-mismatched files are treated as cache misses and deleted,
// then rebuilt by the caller.
package ckpt

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Version is the checkpoint file-format version. Bumping it
// invalidates every existing checkpoint file.
const Version = 1

// header is the first line of every checkpoint file:
//
//	ckptv<version> <crc32-hex> <payload-len>\n
//
// followed by exactly payload-len bytes of JSON.
func header(crc uint32, n int) string {
	return fmt.Sprintf("ckptv%d %08x %d\n", Version, crc, n)
}

// Key derives a content address from the parts that determine an
// artifact. Any change to any part yields a different key.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix each part so ("ab","c") != ("a","bc").
		fmt.Fprintf(h, "%d:", len(p))
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a directory of checkpoint files, one per key. The zero
// Store (or a nil *Store) is disabled: LoadRaw always misses and the
// writes are no-ops, so callers don't need to branch on "checkpointing
// off".
//
// A directory may be shared by any number of stores across processes
// (the multi-replica serving deployment does exactly that): temp files
// carry a per-writer suffix and are created O_EXCL so two writers never
// collide, and a writer that finds the final file already present —
// another replica finished the same content-addressed build first —
// treats losing the rename as a hit, not an error.
type Store struct {
	dir    string
	writer string        // per-writer temp-file suffix, never empty
	reg    *obs.Registry // nil-safe, may be nil
	faults *fault.Plan   // the owning daemon's chaos plan; nil arms nothing
}

// tmpSeq distinguishes concurrent temp files from the same writer.
var tmpSeq atomic.Uint64

// NewStore opens (creating if needed) a checkpoint directory. reg may
// be nil; when set, the store maintains ckpt.hit / ckpt.miss /
// ckpt.corrupt / ckpt.store / ckpt.skip counters. ckpt.hit counts reads
// that found a valid file; ckpt.miss counts Miss calls, one per
// artifact its reader rebuilds, not the reads that found nothing.
func NewStore(dir string, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create dir: %w", err)
	}
	return &Store{dir: dir, writer: fmt.Sprintf("p%d", os.Getpid()), reg: reg}, nil
}

// SetWriter overrides the per-writer temp-file suffix (default: the
// process ID). Multi-replica deployments set it to the replica ID so a
// leaked temp file names its owner. Characters that cannot appear in a
// file name are replaced.
func (s *Store) SetWriter(id string) {
	if s == nil || id == "" {
		return
	}
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, id)
	s.writer = clean
}

// SetFaults arms the store's "ckpt.write" fault site with p, the chaos
// plan of the daemon (or test) that opened it. The store has no
// context to carry a plan, so it holds its owner's. nil disarms.
func (s *Store) SetFaults(p *fault.Plan) {
	if s != nil {
		s.faults = p
	}
}

// Enabled reports whether the store actually persists anything.
func (s *Store) Enabled() bool { return s != nil && s.dir != "" }

// Dir returns the backing directory ("" when disabled).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Miss counts one ckpt.miss: the caller found no valid file for a key
// and is rebuilding its artifact. A reader that polls an absent key
// until another writer publishes it calls Miss never.
func (s *Store) Miss() { s.count("miss") }

func (s *Store) count(name string) {
	if s != nil && s.reg != nil {
		s.reg.Counter("ckpt." + name).Add(1)
	}
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".ckpt")
}

// Keys lists the content-address keys currently on disk, sorted. The
// serving daemon's /healthz reports the count as its warm-start
// inventory. In-flight temp files and foreign names are skipped; a
// disabled store has no keys.
func (s *Store) Keys() ([]string, error) {
	if !s.Enabled() {
		return nil, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read dir: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") || strings.HasPrefix(name, "tmp-") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".ckpt"))
	}
	slices.Sort(keys)
	return keys, nil
}

// ErrUnmarshalable is wrapped by Save's error for a value that cannot
// be marshalled: the value is fine to serve, the store just cannot hold
// it, so it says nothing about the store's health.
var ErrUnmarshalable = errors.New("value cannot be marshalled")

// Save marshals v as JSON and atomically writes it under key, with
// SaveRaw's dup/error contract. Values that cannot be marshalled
// (NaN/Inf metrics, say) are skipped with an error wrapping
// ErrUnmarshalable and counted as ckpt.skip rather than producing a
// torn file; the caller treats that as "not checkpointed", never as
// fatal.
func (s *Store) Save(key string, v any) (dup bool, err error) {
	if !s.Enabled() {
		return false, nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		s.count("skip")
		return false, fmt.Errorf("ckpt: marshal %s: %w: %v", key, ErrUnmarshalable, err)
	}
	return s.SaveRaw(key, payload)
}

// SaveRaw atomically writes an already-marshalled payload under key.
// Keys are content addresses, so two writers racing on the same key are
// by construction writing the same bytes: a writer that finds the final
// file already present simply discards its copy and reports dup=true —
// losing the rename is a hit, never a conflict. The "ckpt.write" fault
// site (armed by SetFaults) lets the chaos suite turn the shared store
// read-only.
func (s *Store) SaveRaw(key string, payload []byte) (dup bool, err error) {
	if !s.Enabled() {
		return false, nil
	}
	if err := s.faults.Hit("ckpt.write"); err != nil {
		s.count("skip")
		return false, fmt.Errorf("ckpt: write %s: %w", key, err)
	}
	if _, err := os.Stat(s.path(key)); err == nil {
		// Another writer already landed this key; content addressing
		// makes its bytes ours.
		s.count("dup")
		return true, nil
	}
	crc := crc32.ChecksumIEEE(payload)
	tmp, tmpName, err := s.createTemp()
	if err != nil {
		s.count("skip")
		return false, fmt.Errorf("ckpt: temp file: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := io.WriteString(tmp, header(crc, len(payload))); err != nil {
		cleanup()
		s.count("skip")
		return false, fmt.Errorf("ckpt: write header: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		cleanup()
		s.count("skip")
		return false, fmt.Errorf("ckpt: write payload: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		s.count("skip")
		return false, fmt.Errorf("ckpt: close: %w", err)
	}
	// Re-check before the rename: the final file appearing between the
	// first stat and here means another writer won the race while we
	// were writing. (A write interleaving between this check and the
	// rename is harmless — both files hold identical bytes.)
	if _, err := os.Stat(s.path(key)); err == nil {
		os.Remove(tmpName)
		s.count("dup")
		return true, nil
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		os.Remove(tmpName)
		s.count("skip")
		return false, fmt.Errorf("ckpt: rename: %w", err)
	}
	s.count("store")
	return false, nil
}

// createTemp opens a fresh O_EXCL temp file suffixed with this writer's
// ID, so writers sharing the directory can never open each other's
// in-flight files and a leaked temp names its owner. The "tmp-" prefix
// keeps Keys from listing it.
func (s *Store) createTemp() (*os.File, string, error) {
	for range 10 {
		name := filepath.Join(s.dir, fmt.Sprintf("tmp-%s-%d.ckpt", s.writer, tmpSeq.Add(1)))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			return f, name, nil
		}
		if !os.IsExist(err) {
			return nil, "", err
		}
	}
	return nil, "", fmt.Errorf("temp name space exhausted for writer %s", s.writer)
}

// LoadRaw looks up key and, on a hit, returns the validated payload
// bytes without unmarshalling, so a replica reading the shared store
// decodes exactly the bytes the building replica wrote. ok=false with
// err=nil is a plain miss; ok=false with non-nil err means a file
// existed but was rejected (wrong version, truncated, CRC mismatch,
// trailing bytes, malformed JSON) and has been removed so the caller
// rebuilds.
func (s *Store) LoadRaw(key string) (payload []byte, ok bool, err error) {
	if !s.Enabled() {
		return nil, false, nil
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		s.count("corrupt")
		return nil, false, fmt.Errorf("ckpt: open %s: %w", key, err)
	}
	defer f.Close()

	reject := func(cause string) ([]byte, bool, error) {
		s.count("corrupt")
		os.Remove(s.path(key))
		return nil, false, fmt.Errorf("ckpt: %s: %s (rebuilding)", key, cause)
	}

	br := bufio.NewReader(f)
	line, err := br.ReadString('\n')
	if err != nil {
		return reject("unreadable header")
	}
	var ver int
	var crc uint32
	var n int
	if _, err := fmt.Sscanf(strings.TrimSuffix(line, "\n"), "ckptv%d %x %d", &ver, &crc, &n); err != nil {
		return reject("malformed header")
	}
	if ver != Version {
		return reject(fmt.Sprintf("version %d, want %d", ver, Version))
	}
	if n < 0 {
		return reject("negative payload length")
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return reject("truncated payload")
	}
	// Any trailing garbage also means the file is not what we wrote.
	if _, err := br.ReadByte(); err != io.EOF {
		return reject("trailing bytes")
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return reject(fmt.Sprintf("crc %08x, want %08x", got, crc))
	}
	// The payload must at least be well-formed JSON before a reader
	// trusts it as a cache fill.
	if !json.Valid(payload) {
		return reject("payload not valid JSON")
	}
	s.count("hit")
	return payload, true, nil
}
