package loader

import (
	"os"
	"path/filepath"

	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

// cache is where index generations live — the one thing that differs
// between the batch facade and the daemon.
type cache interface {
	// previous opens the generation a delta load would extend, nil when
	// there is none that opens.
	previous() *base
	// load maps the single-file generation keyed on digest.
	load(digest [32]byte) (*ribsnap.Snapshot, error)
	// write durably persists a single-file generation.
	write(f *rib.Frozen, window timex.Range, digest [32]byte, counts []ribsnap.CollectorCount, lin *ribsnap.Lineage) error
	// promote records digest as the live generation, if the cache keeps
	// such a record and holds the generation.
	promote(digest [32]byte)
	// store is the store behind the cache, nil when it has none and so
	// no sharded layout.
	store() *ribsnap.Store
}

func newCache(o Options) cache {
	switch {
	case o.Store != nil:
		return storeCache{o.Store} // the store swept its temps at open
	case o.SnapshotDir != "":
		// Temp files orphaned by a write a crash interrupted are never
		// adopted — a durable write publishes only by rename — so they
		// are pure debris.
		_, _ = ribsnap.SweepTemps(o.SnapshotDir)
		return fileCache(filepath.Join(o.SnapshotDir, SnapshotFile))
	}
	return nil
}

// fileCache is the batch layout: one snapshot file, replaced in place,
// whose stale content is the previous generation.
type fileCache string

func (c fileCache) previous() *base {
	s, err := ribsnap.LoadAt(string(c))
	if err != nil {
		return nil
	}
	return snapshotBase(s)
}

func (c fileCache) load(digest [32]byte) (*ribsnap.Snapshot, error) {
	return ribsnap.Load(string(c), digest)
}

func (c fileCache) write(f *rib.Frozen, window timex.Range, digest [32]byte, counts []ribsnap.CollectorCount, lin *ribsnap.Lineage) error {
	if err := os.MkdirAll(filepath.Dir(string(c)), 0o755); err != nil {
		return err
	}
	return ribsnap.WriteLineage(string(c), f, window, digest, counts, lin)
}

func (fileCache) promote([32]byte) {}

func (fileCache) store() *ribsnap.Store { return nil }

// storeCache is the daemon layout: per-generation files and shard
// directories under a journaled store, whose promoted generation is
// the previous one.
type storeCache struct{ st *ribsnap.Store }

func (c storeCache) previous() *base {
	prev, ok := c.st.Promoted()
	if !ok {
		return nil
	}
	if c.st.HasShards(prev) {
		// Residency unbounded: the merge walks every shard anyway.
		ss, err := c.st.LoadShards(prev, 0)
		if err != nil {
			return nil
		}
		return shardSetBase(ss)
	}
	s, err := c.st.Load(prev)
	if err != nil {
		return nil
	}
	return snapshotBase(s)
}

func (c storeCache) load(digest [32]byte) (*ribsnap.Snapshot, error) {
	return c.st.Load(digest)
}

func (c storeCache) write(f *rib.Frozen, window timex.Range, digest [32]byte, counts []ribsnap.CollectorCount, lin *ribsnap.Lineage) error {
	return c.st.WriteLineage(f, window, digest, counts, lin)
}

// promote journals digest live only when the store holds it: a load
// that refused to persist (damaged MRT ingest), failed to, or was
// served from a legacy index.ribsnap must not retire the last good
// generation — the next delta's base — in favour of nothing. A journal
// failure is operational, not a serving problem; the next promote
// retries.
func (c storeCache) promote(digest [32]byte) {
	if !c.st.HasShards(digest) {
		if _, err := os.Stat(c.st.GenPath(digest)); err != nil {
			return
		}
	}
	_ = c.st.Promote(digest)
}

func (c storeCache) store() *ribsnap.Store { return c.st }

// base is the previous generation as delta.Build needs it. close must
// not run until the merged index has been persisted: the merge aliases
// the base's storage.
type base struct {
	lin    *ribsnap.Lineage
	counts []ribsnap.CollectorCount
	window timex.Range
	digest [32]byte
	frozen func() (*rib.Frozen, error)
	close  func()
}

func snapshotBase(s *ribsnap.Snapshot) *base {
	return &base{
		lin: s.Lineage, counts: s.Counts, window: s.Window, digest: s.Digest,
		frozen: s.Index.Frozen,
		close:  func() { s.Close() },
	}
}

// shardSetBase defers mapping the shards until the merge is certain to
// run, then concatenates them back into one frozen view.
func shardSetBase(ss *ribsnap.ShardSet) *base {
	var rels []rib.ShardRelease
	return &base{
		lin: ss.Lineage(), counts: ss.Counts(), window: ss.Window(), digest: ss.Digest(),
		frozen: func() (*rib.Frozen, error) {
			fs := make([]*rib.Frozen, ss.NumShards())
			for i := range fs {
				ix, rel, err := ss.AcquireIndex(i)
				if err != nil {
					return nil, err
				}
				rels = append(rels, rel)
				if fs[i], err = ix.Frozen(); err != nil {
					return nil, err
				}
			}
			return rib.ConcatFrozen(fs)
		},
		close: func() {
			for _, rel := range rels {
				rel.Release()
			}
			ss.Close()
		},
	}
}
