package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/fault"
)

// ErrLeaseLost is returned by renew when this replica's lease has been
// superseded — another replica presumed us dead (an expired TTL) and
// claimed the next generation of the key, or has already finished the
// key and deleted its generations. The holder cancels its build with
// this cause and never publishes it: the new holder owns the key.
//
// It wraps context.Canceled because it is one: it describes the
// holder, not the artifact, so a build layer that memoizes failures
// (core's artifact cells) must neither cache it nor retry it.
var ErrLeaseLost = fmt.Errorf("replica: lease lost to another owner: %w", context.Canceled)

// leaseRecord is the JSON body of a lease file. Expires is an absolute
// wall-clock deadline: replicas share a filesystem, so they share a
// clock to within NTP skew, which the TTL must dominate.
type leaseRecord struct {
	Owner    string `json:"owner"`
	Seq      int64  `json:"seq"`             // renewal count, for debugging
	Expires  int64  `json:"expires_unix_ns"` // absolute deadline
	Released bool   `json:"released,omitempty"`

	gen int // the generation, N in <key>.lease.N; not serialized
}

// expired reports whether the record no longer holds the key at now:
// its deadline has passed, or its holder released it without a
// result. An unparseable lease file decodes to the zero record, whose
// Expires of 0 is always in the past — torn writes read as stale, so a
// crash mid-heartbeat cannot wedge a key forever.
func (r leaseRecord) expired(now time.Time) bool {
	return r.Released || r.Expires <= now.UnixNano()
}

// leaseDir implements the on-disk lease protocol over the shared
// checkpoint directory. A key's leases are numbered generations,
// `<key>.lease.1`, `<key>.lease.2`, …; the highest one present is the
// current lease. Each is published atomically (record written to a
// temp file, then hard-linked into place, which fails if that
// generation exists), so claiming — a fresh key or the takeover of an
// expired lease — is one link with exactly one winner and never a
// delete. The holder renews its own generation via temp-file + rename.
// Generations are deleted only once the key's result is in the shared
// store, where every later claimant's re-read finds it.
type leaseDir struct {
	dir   string
	owner string
	ttl   time.Duration
	now   func() time.Time // test seam; time.Now in production
}

func (l *leaseDir) path(key string, gen int) string {
	return filepath.Join(l.dir, key+".lease."+strconv.Itoa(gen))
}

// tryAcquire attempts to claim key. held=true means this replica now
// owns the lease, described by cur, and must build; held=false with
// err=nil means a live holder exists and cur describes it. takeover
// reports that the claim superseded an expired (not released) lease.
// A non-nil err means the lease infrastructure itself failed —
// unwritable directory, injected fault — and the caller degrades to an
// uncoordinated local build.
func (l *leaseDir) tryAcquire(ctx context.Context, key string) (held bool, cur leaseRecord, takeover bool, err error) {
	if err := fault.Hit(ctx, SiteLeaseAcquire); err != nil {
		return false, leaseRecord{}, false, err
	}
	// Two rounds: losing a link means another replica claimed that
	// generation first, and it is normally the live holder; the second
	// round covers a claimant that released again in between.
	for attempt := 0; attempt < 2; attempt++ {
		prev, ok, err := l.read(key)
		if err != nil {
			return false, leaseRecord{}, false, err
		}
		if ok && !prev.expired(l.now()) {
			return false, prev, false, nil
		}
		mine, created, err := l.create(key, prev.gen+1)
		if err != nil {
			return false, leaseRecord{}, false, err
		}
		if created {
			return true, mine, ok && !prev.Released, nil
		}
	}
	rec, _, err := l.read(key)
	if err != nil {
		return false, leaseRecord{}, false, err
	}
	return false, rec, false, nil
}

// create makes the claim attempt on generation gen. created=false with
// err=nil means that generation already exists: another replica
// claimed it first.
//
// The record is written to a temp file first and hard-linked into
// place, so the lease appears with its full record or not at all.
// Creating the file empty and writing it afterwards would open a
// window in which a waiter reads an empty record, decodes it as
// expired, supersedes a live lease and builds the key a second time.
func (l *leaseDir) create(key string, gen int) (rec leaseRecord, created bool, err error) {
	rec = leaseRecord{Owner: l.owner, Seq: 1, Expires: l.now().Add(l.ttl).UnixNano(), gen: gen}
	tmpName, err := l.writeTemp(rec)
	if err != nil {
		return leaseRecord{}, false, fmt.Errorf("replica: lease create %s: %w", key, err)
	}
	defer os.Remove(tmpName)
	if err := os.Link(tmpName, l.path(key, gen)); err != nil {
		if os.IsExist(err) {
			return leaseRecord{}, false, nil
		}
		return leaseRecord{}, false, fmt.Errorf("replica: lease create %s: %w", key, err)
	}
	return rec, true, nil
}

// writeTemp writes rec to a fresh temp file in the lease directory and
// returns its name; the caller links or renames it into place.
func (l *leaseDir) writeTemp(rec leaseRecord) (string, error) {
	b, _ := json.Marshal(rec)
	tmp, err := os.CreateTemp(l.dir, "lease-tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// read returns key's current lease: the record of the highest
// generation, found by probing upward from 1. ok=false means no lease
// file exists. An unreadable or unparseable record reads as the zero
// record (already expired), so corruption resolves to takeover.
//
// Generations stay contiguous until the key's result is stored: only
// release after a stored result deletes them. A probe that meets a gap
// left by that deletion reads a stale or missing lease and claims,
// and the claimant's store re-read then finds the result.
func (l *leaseDir) read(key string) (rec leaseRecord, ok bool, err error) {
	for gen := 1; ; gen++ {
		b, err := os.ReadFile(l.path(key, gen))
		if err != nil {
			if os.IsNotExist(err) {
				return rec, ok, nil
			}
			return leaseRecord{}, false, fmt.Errorf("replica: lease read %s: %w", key, err)
		}
		rec, ok = leaseRecord{gen: gen}, true
		_ = json.Unmarshal(b, &rec) // zero record on failure: expired
	}
}

// superseded reports whether another replica has taken the key over:
// a generation after mine exists, or mine is gone or no longer ours.
// Only a release after a stored result deletes generations (and only
// then can another replica claim a freed number again). It deletes them
// oldest first, so the later generation is checked first: if mine+1
// is gone, mine was gone before it, and mine can never look current
// again while the new holder cleans up.
func (l *leaseDir) superseded(key string, mine leaseRecord) (bool, error) {
	_, err := os.Stat(l.path(key, mine.gen+1))
	switch {
	case err == nil:
		return true, nil
	case !os.IsNotExist(err):
		return false, err
	}
	b, err := os.ReadFile(l.path(key, mine.gen))
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, err
	}
	var cur leaseRecord
	if json.Unmarshal(b, &cur) != nil || cur.Owner != l.owner {
		return true, nil
	}
	return false, nil
}

// renew extends mine's deadline by one TTL, atomically replacing its
// generation's file so a concurrent read never sees a torn record, and
// returns the renewed record. ErrLeaseLost means another replica owns
// the key now; other errors mean the heartbeat could not reach the
// directory.
func (l *leaseDir) renew(ctx context.Context, key string, mine leaseRecord) (leaseRecord, error) {
	if err := fault.HitKey(ctx, SiteLeaseRenew, key); err != nil {
		return mine, err
	}
	lost, err := l.superseded(key, mine)
	if err != nil {
		return mine, fmt.Errorf("replica: lease renew %s: %w", key, err)
	}
	if lost {
		return mine, ErrLeaseLost
	}
	next := mine
	next.Seq++
	next.Expires = l.now().Add(l.ttl).UnixNano()
	tmpName, err := l.writeTemp(next)
	if err != nil {
		return mine, fmt.Errorf("replica: lease renew %s: %w", key, err)
	}
	if err := os.Rename(tmpName, l.path(key, mine.gen)); err != nil {
		os.Remove(tmpName)
		return mine, fmt.Errorf("replica: lease renew %s: %w", key, err)
	}
	return next, nil
}

// release gives up mine. stored reports whether the key's result is in
// the shared store: then every generation up to mine is deleted,
// oldest first, since any later claimant's store re-read finds the
// result. Otherwise (the build failed, or the store write did) mine is
// overwritten with a released record, which the next claimant
// supersedes at once instead of waiting out the TTL; deleting it would
// let generation numbers repeat, and a claimant that probed before the
// delete could then win a link that another claimant also won. A
// release that fails (or is suppressed by the replica.lease.release
// fault site) leaves a live-looking lease behind; the next claimant
// waits out the TTL and takes over, so a lost release costs latency,
// never correctness.
func (l *leaseDir) release(ctx context.Context, key string, mine leaseRecord, stored bool) error {
	if err := fault.Hit(ctx, SiteLeaseRelease); err != nil {
		return err
	}
	b, err := os.ReadFile(l.path(key, mine.gen))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("replica: lease release %s: %w", key, err)
	}
	var cur leaseRecord
	if json.Unmarshal(b, &cur) != nil || cur.Owner != l.owner {
		return nil // not ours: releasing it would free someone else's lease
	}
	if stored {
		// Oldest first; see superseded.
		for gen := 1; gen <= mine.gen; gen++ {
			os.Remove(l.path(key, gen))
		}
		return nil
	}
	if lost, err := l.superseded(key, mine); err != nil || lost {
		return err
	}
	done := mine
	done.Released = true
	tmpName, err := l.writeTemp(done)
	if err != nil {
		return fmt.Errorf("replica: lease release %s: %w", key, err)
	}
	if err := os.Rename(tmpName, l.path(key, mine.gen)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("replica: lease release %s: %w", key, err)
	}
	return nil
}
