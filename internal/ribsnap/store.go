// Store: the manifest-backed snapshot directory every cached load goes
// through, the batch CLI's and the daemon's alike. One directory holds
// the manifest journal and one generation directory per archive state
// (gen-<digest16>/: K shard snapshots plus the shards.manifest that
// publishes them, see shardset.go). A monolith is K = 1; there is no
// other layout.
//
// Opening a store is the crash-recovery point: orphaned write temps
// are swept, the manifest's torn tail (if any) is truncated,
// generation directories that exist without a manifest record (a
// crash between the shard manifest's rename and the journal append)
// are adopted as written, directories without a readable shard
// manifest (a writer that died mid-write) are removed, and records
// whose directory has vanished are marked removed. After OpenStore
// returns, the directory and the journal agree.
package ribsnap

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dropscope/internal/fsio"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// DefaultRetain is how many non-live generations (retired or corrupt)
// a store keeps on disk before garbage-collecting the oldest.
const DefaultRetain = 2

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// FS is the filesystem seam for writes; nil means the real OS.
	FS FS

	// retain overrides DefaultRetain, the cap on non-live generations
	// surviving GC; the GC tests lower it.
	retain int
}

// Store is a manifest-backed snapshot directory. A mutex serializes
// all methods: the serving layer's reload goroutine writes and
// promotes while the background scrubber reports corruption, and the
// journal must observe one order.
type Store struct {
	mu     sync.Mutex
	dir    string
	fsys   FS
	m      *Manifest
	retain int
}

// OpenStore opens (creating if needed) the snapshot store under dir
// and runs crash recovery: temp sweep, manifest torn-tail truncation,
// and file/journal reconciliation.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS
	}
	retain := opts.retain
	if retain <= 0 {
		retain = DefaultRetain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := fsio.SweepTemps(fsys, dir); err != nil {
		return nil, fmt.Errorf("ribsnap: store: sweeping temps: %w", err)
	}
	m, err := OpenManifestFS(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("ribsnap: store: %w", err)
	}
	st := &Store{dir: dir, fsys: fsys, m: m, retain: retain}
	if err := st.reconcile(); err != nil {
		return nil, fmt.Errorf("ribsnap: store: %w", err)
	}
	return st, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Manifest exposes the replayed journal state. Callers must not use it
// concurrently with store mutations; prefer Status and Promoted, which
// take the store lock.
func (st *Store) Manifest() *Manifest { return st.m }

// Status reports a generation's replayed lifecycle state.
func (st *Store) Status(digest [32]byte) GenStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m.Status(digest)
}

// Promoted returns the live generation's digest, if any.
func (st *Store) Promoted() ([32]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m.Promoted()
}

// GenDirPath returns the directory a generation lives under.
func (st *Store) GenDirPath(digest [32]byte) string {
	return filepath.Join(st.dir, GenDirName(digest))
}

// HasShards reports whether the store holds the generation: a
// generation directory with a shard manifest.
func (st *Store) HasShards(digest [32]byte) bool {
	_, err := os.Stat(filepath.Join(st.GenDirPath(digest), shardManifestName))
	return err == nil
}

// reconcile aligns the journal with the directory. A generation's
// identity lives in its shard manifest, written last and durably: a
// directory with a valid one was fully written — adopt it if the crash
// came before the journal heard of it; one without is the debris of a
// writer that died mid-write — remove it. A record whose directory is
// gone (operator deletion, partial GC) is marked removed so loads stop
// considering it. Anything else in the directory, such as a snapshot
// file from before generation directories, is not the store's and is
// left alone.
func (st *Store) reconcile() error {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	onDisk := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "gen-") {
			continue
		}
		man, merr := ReadShardManifest(filepath.Join(st.dir, name, shardManifestName))
		if merr != nil {
			if rerr := os.RemoveAll(filepath.Join(st.dir, name)); rerr != nil {
				return rerr
			}
			continue
		}
		onDisk[name] = true
		if st.m.Status(man.Digest) == GenUnknown {
			if err := st.m.Append(GenWritten, man.Digest); err != nil {
				return err
			}
		}
	}
	for _, rec := range st.m.Generations() {
		if rec.Op != GenRemoved && !onDisk[GenDirName(rec.Digest)] {
			if err := st.m.Append(GenRemoved, rec.Digest); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteShardsLineage durably persists a generation — shards cut with
// rib.FrozenShards written in parallel on a bounded pool (workers <= 0
// means one per shard), then the shard manifest, then the parent
// directory fsync — and journals it as written. The manifest is
// written last, so crash recovery has a single rule: a generation
// directory with a valid manifest is complete, one without is debris.
// It does not promote; callers promote after deciding the generation
// is the one to serve. Every shard file carries an identical copy of
// lin (like the window and counts); a nil lin is an error, refused
// before anything on disk changes.
func (st *Store) WriteShardsLineage(shards []*rib.Frozen, window timex.Range, digest [32]byte, counts []CollectorCount, workers int, lin *Lineage) error {
	if len(shards) == 0 {
		return fmt.Errorf("ribsnap: WriteShardsLineage needs at least one shard")
	}
	if lin == nil {
		return errNoLineage
	}
	dir := st.GenDirPath(digest)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Rewriting a generation in place (same digest: another window or K,
	// or a rebuild of one journaled corrupt) first unpublishes it. With
	// its shard manifest durably gone, a crash anywhere below leaves
	// debris reconcile removes — never new shards behind the old
	// manifest. Shard files past the new K go with it.
	if err := st.fsys.Remove(filepath.Join(dir, shardManifestName)); err == nil {
		if err := st.fsys.SyncDir(dir); err != nil {
			return err
		}
		for i := len(shards); st.fsys.Remove(filepath.Join(dir, ShardFileName(i))) == nil; i++ {
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if workers <= 0 || workers > len(shards) {
		workers = len(shards)
	}
	errs := make([]error, len(shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				errs[i] = WriteLineageFS(st.fsys, filepath.Join(dir, ShardFileName(i)),
					shards[i], window, digest, counts, lin)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ribsnap: shard %d: %w", i, err)
		}
	}
	man := &ShardManifest{Digest: digest, Window: window}
	man.Shards = make([]ShardInfo, len(shards))
	for i, f := range shards {
		si := ShardInfo{NumPrefixes: len(f.Prefixes)}
		if len(f.Prefixes) > 0 {
			si.Bound = f.Prefixes[0]
		}
		man.Shards[i] = si
	}
	if err := writeShardManifestFS(st.fsys, dir, man); err != nil {
		return fmt.Errorf("ribsnap: shard manifest: %w", err)
	}
	if err := st.fsys.SyncDir(st.dir); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m.Append(GenWritten, digest)
}

// The text journal (internal/archive) and the archive manifest
// (internal/filesum) are framed files at the store root that a load
// reads whole, nil when there is none, and replaces whole, neither
// synced nor in the manifest journal: a torn or lost file fails its own
// checks, which costs the next load one parse or one hash of the
// archive (DESIGN.md, "The text journal").
const (
	textJournalName     = "text.journal"
	archiveManifestName = "archive.manifest"
)

func (st *Store) ReadTextJournal() []byte             { return st.readRoot(textJournalName) }
func (st *Store) WriteTextJournal(b []byte) error     { return st.writeRoot(textJournalName, b) }
func (st *Store) ReadArchiveManifest() []byte         { return st.readRoot(archiveManifestName) }
func (st *Store) WriteArchiveManifest(b []byte) error { return st.writeRoot(archiveManifestName, b) }

// RootFiles returns the paths of the framed files at the store root.
func (st *Store) RootFiles() []string {
	return []string{filepath.Join(st.dir, textJournalName), filepath.Join(st.dir, archiveManifestName)}
}

func (st *Store) readRoot(name string) []byte {
	b, err := os.ReadFile(filepath.Join(st.dir, name))
	if err != nil {
		return nil
	}
	return b
}

func (st *Store) writeRoot(name string, b []byte) error {
	return replaceWith(st.fsys, filepath.Join(st.dir, name), false, b)
}

// replaceWith replaces the file at path with b (fsio.Replace).
func replaceWith(fsys FS, path string, durable bool, b []byte) error {
	return fsio.Replace(fsys, path, durable, func(f File) error {
		_, err := f.Write(b)
		return err
	})
}

// LoadShards opens the generation for digest as a ShardSet, in the K it
// was written with. A generation the journal marks corrupt fails
// immediately with ErrCorrupt — the whole point of the mark is that a
// damaged file must not be re-adopted just because its CRC happens to
// re-verify against damaged expectations, or the damage is in a region
// load-time verification does not reach until queried.
func (st *Store) LoadShards(digest [32]byte, maxResident int) (*ShardSet, error) {
	st.mu.Lock()
	status := st.m.Status(digest)
	st.mu.Unlock()
	if status == GenCorrupt {
		return nil, fmt.Errorf("%w: generation %s marked corrupt in manifest",
			ErrCorrupt, hex.EncodeToString(digest[:8]))
	}
	return OpenShardSet(st.GenDirPath(digest), digest, maxResident)
}

// Promote journals digest as the live generation, retires the previous
// one (if different), and garbage-collects beyond the retention cap.
// Promoting the already-live generation is a no-op, so reload cycles
// that land on the same archive state do not grow the journal.
func (st *Store) Promote(digest [32]byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.m.Promoted(); ok && cur == digest {
		return nil
	}
	prev, hadPrev := st.m.Promoted()
	if err := st.m.Append(GenPromoted, digest); err != nil {
		return err
	}
	if hadPrev && prev != digest {
		if err := st.m.Append(GenRetired, prev); err != nil {
			return err
		}
	}
	return st.gc()
}

// MarkCorrupt journals a generation as damaged (scrub mismatch, load
// failure). Subsequent LoadShards calls for the digest fail with
// ErrCorrupt until a rewrite supersedes the mark.
func (st *Store) MarkCorrupt(digest [32]byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m.Append(GenCorrupt, digest)
}

// GC removes non-live generation directories beyond the retention cap,
// oldest records first, journaling each removal. Corrupt generations
// are kept within the same cap — they are forensic evidence — but are
// first in line for eviction. A generation written before the live
// promotion and never promoted since — a crash between write and
// promote, or a directory reconcile adopted — counts as retired; one
// written after it may yet be promoted and stays.
func (st *Store) GC() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gc()
}

func (st *Store) gc() error {
	_, hasLive := st.m.Promoted()
	var evictable []ManifestRecord
	for _, rec := range st.m.Generations() {
		orphan := rec.Op == GenWritten && hasLive && rec.Seq < st.m.promotedSeq
		if rec.Op == GenRetired || rec.Op == GenCorrupt || orphan {
			evictable = append(evictable, rec)
		}
	}
	if len(evictable) <= st.retain {
		return nil
	}
	// Corrupt first, then oldest first (Generations is already
	// seq-ordered; a stable partition keeps that within each class).
	sort.SliceStable(evictable, func(i, j int) bool {
		ci, cj := evictable[i].Op == GenCorrupt, evictable[j].Op == GenCorrupt
		return ci && !cj
	})
	for _, rec := range evictable[:len(evictable)-st.retain] {
		// Recursive removal stays outside the fault-injection seam: each
		// file inside was written through it, but GC of a retired tree is
		// not a durability edge the crash suite needs to cut.
		if err := os.RemoveAll(st.GenDirPath(rec.Digest)); err != nil {
			return err
		}
		if err := st.m.Append(GenRemoved, rec.Digest); err != nil {
			return err
		}
	}
	return st.fsys.SyncDir(st.dir)
}
