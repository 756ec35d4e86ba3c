// Package loader turns an archive directory into a queryable study: it
// is the one implementation of the resolve → delta | warm | cold →
// persist state machine that both the batch facade
// (dropscope.LoadStudyWithOptions) and the query daemon (serve.Load)
// run. The two callers differ only in where index generations live —
// a bare SnapshotDir/index.ribsnap or a manifest-backed ribsnap.Store
// — and that is the only seam (see cache.go).
//
// Every route serves the index a cache-off cold build would: a cached
// generation can cost time, never correctness. DESIGN.md ("The load
// path") tabulates condition → route → what is persisted → what is
// counted in health.
package loader

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dropscope/internal/analysis"
	"dropscope/internal/archive"
	"dropscope/internal/delta"
	"dropscope/internal/ingest"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

const (
	// SnapshotSource is the ingest.Health source a discarded cached
	// generation is accounted under.
	SnapshotSource = "ribsnap/index"
	// SnapshotFile is the file name of the single-file snapshot inside
	// Options.SnapshotDir.
	SnapshotFile = "index.ribsnap"
)

// Route names how Load obtained the index.
type Route uint8

const (
	// Cold decoded the MRT archives and built the index.
	Cold Route = iota
	// Warm mapped a cached generation keyed on the archive's digest.
	Warm
	// Delta merged the archive's appended bytes onto the previous
	// generation, persisted the result and mapped it.
	Delta
)

func (r Route) String() string {
	return [...]string{"cold", "warm", "delta"}[r]
}

// Options configures Load.
type Options struct {
	// Window is the study window the index must cover.
	Window timex.Range
	// Health receives the load's ingest accounting and makes it lenient:
	// damage is skipped and counted per source, and a collector over its
	// skip budget is quarantined. Nil loads strictly — the first corrupt
	// record or malformed line fails the load.
	Health *ingest.Health
	// MaxSkip is the per-collector skip budget of a lenient load
	// (0 = ingest.DefaultMaxSkip, negative = unlimited).
	MaxSkip int
	// Workers bounds the RIB-loading pool, the archive's text load and
	// the sharded index's fan-out pool (<= 0 = runtime.GOMAXPROCS(0)).
	Workers int
	// SnapshotDir, when non-empty, caches the index as the single file
	// SnapshotDir/index.ribsnap: the single-owner batch layout.
	SnapshotDir string
	// Store, when non-nil, supersedes SnapshotDir: generations are read,
	// written and promoted through the manifest-backed store, which
	// refuses generations journaled corrupt, adopts a legacy
	// index.ribsnap read-only, and is the only cache with a sharded
	// layout. This is the daemon's cache.
	Store *ribsnap.Store
	// Shards, when > 1, serves a prefix-range sharded index. With a
	// Store the shards are files (gen-<digest>/shard-<i>.ribsnap +
	// shards.manifest) mapped on demand; otherwise the index is cut in
	// memory. Query results are identical to the single index's.
	Shards int
	// MemBudget caps how many file-backed shards stay mapped at once
	// (<= 0 keeps them all resident).
	MemBudget int
	// Delta lets a load whose archive grew append-only since the cache's
	// previous generation decode only the appended bytes and merge them
	// onto it. Any violation of the append-only contract falls back to
	// the other routes.
	Delta bool
}

// Loaded is a successful load.
type Loaded struct {
	Pipeline *analysis.Pipeline
	// Snapshot owns whatever the index aliases and carries the archive
	// digest: the mapped file after a warm or delta load, the master of
	// Shards when that is set, and a mapping-free wrapper otherwise, so
	// every caller closes (or refcounts) one thing.
	Snapshot *ribsnap.Snapshot
	// Shards is the residency manager of a file-backed sharded
	// generation, nil otherwise.
	Shards *ribsnap.ShardSet
	Route  Route
}

var (
	errNoGrowth = errors.New("loader: archive did not grow append-only past the previous generation")
	errWindow   = fmt.Errorf("%w: cached generation covers another study window", ribsnap.ErrStale)
	// errShardedOnly is the one discard that leaves a healthy file in
	// place, so its text becomes the health source's note.
	errShardedOnly = errors.New("the store holds this archive state only as a sharded generation, which an unsharded load cannot map: rebuilt cold")
)

// Load builds the study over the archive directory dir. The route
// order is fixed: the delta path is tried first because file sizes
// alone select it and its single pass over the archive yields the
// digest; otherwise the archive is hashed once and the digest keys the
// warm lookup; a miss builds cold and, when MRT ingest was clean,
// persists the generation for the next load.
func Load(dir string, o Options) (*Loaded, error) {
	h := o.Health
	c := newCache(o)
	mrtDir := filepath.Join(dir, "mrt")
	var (
		l       = &Loaded{}
		digest  [32]byte
		keyed   bool // digest is the archive's
		cursors []ribsnap.ArchiveCursor
	)
	if c != nil && o.Delta {
		if l.Snapshot, l.Shards = tryDelta(c, o, mrtDir); l.Snapshot != nil {
			l.Route, digest, keyed = Delta, l.Snapshot.Digest, true
		}
	}
	if !keyed {
		// One read of the archive yields both the key and the lineage
		// cursors a cold build persists. An error (a missing mrt/
		// directory) falls through: the archive load reports it.
		if cur, err := ribsnap.ArchiveCursors(mrtDir); err == nil {
			cursors, digest, keyed = cur, ribsnap.DigestCursors(cur), true
			if c != nil {
				if l.Snapshot, l.Shards = warm(c, o, digest); l.Snapshot != nil {
					l.Route = Warm
				}
			}
		}
	}

	b, err := archive.LoadWithOptions(dir, archive.LoadOptions{Health: h, SkipMRT: l.Snapshot != nil, Workers: o.Workers})
	if err != nil {
		l.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	aopts := analysis.Options{Workers: o.Workers, Lenient: h != nil, MaxSkip: o.MaxSkip, Health: h}
	if l.Snapshot != nil {
		if aopts.Index, err = index(l.Snapshot, l.Shards, o.Workers); err != nil {
			l.close()
			return nil, fmt.Errorf("sharded index: %w", err)
		}
	}
	p, err := analysis.NewWithOptions(analysis.Dataset{
		Window: o.Window,
		DROP:   b.DROP, SBL: b.SBL, IRR: b.IRR, RPKI: b.RPKI, RIR: b.RIR,
		MRT: b.MRT,
	}, aopts)
	if err != nil {
		l.close()
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	l.Pipeline = p

	if l.Snapshot != nil {
		if h != nil {
			// Replay the per-collector record counts the generation
			// preserved, so health reports what a cold build would.
			for _, cc := range l.Snapshot.Counts {
				h.Source("mrt/" + cc.Collector).Accept(cc.Records)
			}
		}
	} else {
		ix, _ := p.Index.(*rib.Index)
		l.Snapshot = &ribsnap.Snapshot{Index: ix, Window: o.Window, Digest: digest}
		// A partial index must never masquerade as the archive's: only
		// clean MRT ingest is persisted. Best-effort beyond that — a
		// failed write leaves the load unaffected.
		if c != nil && keyed && mrtClean(h) {
			lin := &ribsnap.Lineage{MaxDay: ix.MaxDay(), Cursors: cursors}
			if persist(c, o, ix, digest, collectorCounts(b, h), lin) == nil && shardStore(c, o) != nil {
				// Serve the reopened, file-backed shards, so a cold build
				// and the warm start after it answer from identical bytes.
				if snap, ss, err := open(c, o, digest); err == nil {
					if q, err := index(snap, ss, o.Workers); err == nil {
						p.Index, l.Snapshot, l.Shards = q, snap, ss
					} else {
						snap.Close()
					}
				}
			}
		}
	}
	// In-memory cut: sharding was asked for and the index is still one
	// piece (no store, a single-file generation, a failed sharded
	// persist). Queries run the same fan-out paths, minus the budget.
	if ix, ok := p.Index.(*rib.Index); ok && o.Shards > 1 {
		fs, err := ix.FrozenShards(o.Shards, o.Workers)
		if err == nil {
			p.Index, err = rib.ShardedFromFrozen(fs, o.Workers)
		}
		if err != nil {
			l.close()
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	if c != nil && keyed {
		c.promote(digest)
	}
	return l, nil
}

// close releases what a failed load had opened.
func (l *Loaded) close() {
	if l.Snapshot != nil {
		l.Snapshot.Close()
	}
}

// index returns the query view over an opened generation.
func index(snap *ribsnap.Snapshot, ss *ribsnap.ShardSet, workers int) (rib.Querier, error) {
	if ss != nil {
		return ss.Sharded(workers)
	}
	return snap.Index, nil
}

// shardStore returns the store the load's generations are laid out
// sharded in, nil when they are single files: the sharded layout needs
// both Shards > 1 and a cache that has one.
func shardStore(c cache, o Options) *ribsnap.Store {
	if o.Shards > 1 {
		return c.store()
	}
	return nil
}

// persist writes ix as the generation for digest, in the layout
// shardStore selects.
func persist(c cache, o Options, ix *rib.Index, digest [32]byte, counts []ribsnap.CollectorCount, lin *ribsnap.Lineage) error {
	if st := shardStore(c, o); st != nil {
		fs, err := ix.FrozenShards(o.Shards, o.Workers)
		if err != nil {
			return err
		}
		return st.WriteShardsLineage(fs, o.Window, digest, counts, o.Workers, lin)
	}
	f, err := ix.Frozen()
	if err != nil {
		return err
	}
	return c.write(f, o.Window, digest, counts, lin)
}

// open maps the generation for digest in the layout shardStore
// selects. A shard set comes back with its master snapshot, so both
// layouts close the same way.
func open(c cache, o Options, digest [32]byte) (*ribsnap.Snapshot, *ribsnap.ShardSet, error) {
	if st := shardStore(c, o); st != nil {
		ss, err := st.LoadShards(digest, o.MemBudget)
		if err != nil {
			return nil, nil, err
		}
		return ss.Master(), ss, nil
	}
	s, err := c.load(digest)
	return s, nil, err
}

// usable returns s when it opened and covers the window; otherwise it
// closes s, counts the discard and returns nil.
func usable(o Options, s *ribsnap.Snapshot, err error) *ribsnap.Snapshot {
	if err == nil && s.Window != o.Window {
		s.Close()
		err = errWindow
	}
	if err != nil {
		countSnapshotSkip(o.Health, err)
		return nil
	}
	return s
}

// warm looks the digest up in the cache: the sharded set first (a
// generation directory with a manifest is complete by construction),
// then the single snapshot, which a sharded load over a store upgrades
// in place.
func warm(c cache, o Options, digest [32]byte) (*ribsnap.Snapshot, *ribsnap.ShardSet) {
	st := c.store()
	hasShards := st != nil && st.HasShards(digest)
	if hasShards && o.Shards > 1 {
		snap, ss, err := open(c, o, digest)
		if snap = usable(o, snap, err); snap != nil {
			return snap, ss
		}
	}
	s, err := c.load(digest)
	if hasShards && o.Shards <= 1 && os.IsNotExist(err) {
		err = errShardedOnly
	}
	snap := usable(o, s, err)
	if snap == nil || shardStore(c, o) == nil {
		return snap, nil
	}
	// A single-file generation under Shards: the mapped monolith is
	// already the frozen index, so cut it, persist the sharded layout
	// and reopen under the budget — sharding an existing deployment
	// takes effect on the first restart. Any failure keeps the single
	// mapping (the in-memory cut still gives fan-out).
	if persist(c, o, snap.Index, digest, snap.Counts, snap.Lineage) == nil {
		if up, ss, err := open(c, o, digest); err == nil {
			snap.Close()
			return up, ss
		}
	}
	return snap, nil
}

// tryDelta takes the incremental path when the archive grew
// append-only past the cache's previous generation: merge the appended
// bytes onto it, persist the result under the digest the merge's own
// pass derived, and map it back. It returns nils when the delta cannot
// be taken — no previous generation, no lineage, no growth, a
// rewritten prefix, a decode error in the suffix, a window that moved
// backwards, a persist failure — and the caller carries on with the
// hash-and-look-up routes.
func tryDelta(c cache, o Options, mrtDir string) (*ribsnap.Snapshot, *ribsnap.ShardSet) {
	b := c.previous()
	if b == nil {
		return nil, nil
	}
	// The merged index aliases the base until it is persisted; the
	// served mapping must never alias a retired one. So: write, release
	// the base, then map the result from disk.
	digest, err := b.extend(c, o, mrtDir)
	b.close()
	if err != nil {
		return nil, nil
	}
	snap, ss, err := open(c, o, digest)
	if err != nil {
		return nil, nil
	}
	return snap, ss
}

// extend merges the archive's appended bytes onto the base, if sizes
// say it grew, and persists the result under the digest it returns.
func (b *base) extend(c cache, o Options, mrtDir string) ([32]byte, error) {
	if b.lin == nil || !archiveGrew(mrtDir, b.lin.Cursors) {
		return [32]byte{}, errNoGrowth
	}
	f, err := b.frozen()
	if err != nil {
		return [32]byte{}, err
	}
	res, err := delta.Build(mrtDir, f, b.lin, b.counts, b.window, o.Window, b.digest)
	if err != nil {
		return [32]byte{}, err
	}
	ix, err := rib.FromFrozen(res.Frozen)
	if err != nil {
		return [32]byte{}, err
	}
	return res.Digest, persist(c, o, ix, res.Digest, res.Counts, res.Lineage)
}

// archiveGrew reports whether the MRT files under mrtDir moved forward
// append-style from the cursors: every consumed file still present at
// its consumed size or larger, and at least one file grown or new. It
// reads no bytes — sizes alone route the load; the delta build's
// prefix hashes verify the old bytes are really unchanged.
func archiveGrew(mrtDir string, cursors []ribsnap.ArchiveCursor) bool {
	entries, err := os.ReadDir(mrtDir)
	if err != nil {
		return false
	}
	sizes := make(map[string]uint64, len(entries))
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".mrt")
		if !ok || e.IsDir() {
			continue
		}
		fi, ferr := e.Info()
		if ferr != nil {
			return false
		}
		sizes[name] = uint64(fi.Size())
	}
	grew := false
	for _, c := range cursors {
		size, ok := sizes[c.Collector]
		if !ok || size < c.Size {
			return false // removed or truncated: not append-only
		}
		if size > c.Size {
			grew = true
		}
		delete(sizes, c.Collector)
	}
	return grew || len(sizes) > 0 // len > 0: a new collector came online
}

// countSnapshotSkip classifies a discarded cached generation in the
// health accounting, so the report says why the load did not map it. A
// missing snapshot (first run) is not damage and counts nothing;
// everything else counts one skip. Strict loads (nil h) count nothing.
func countSnapshotSkip(h *ingest.Health, err error) {
	if h == nil || os.IsNotExist(err) {
		return
	}
	src := h.Source(SnapshotSource)
	switch {
	case errors.Is(err, ribsnap.ErrTruncated):
		src.Skip(ingest.Truncated)
	case errors.Is(err, errShardedOnly):
		src.Skip(ingest.Unsupported)
		src.Note = err.Error()
	case errors.Is(err, ribsnap.ErrVersion), errors.Is(err, ribsnap.ErrStale):
		src.Skip(ingest.Unsupported)
	default:
		src.Skip(ingest.Corrupt)
	}
}

// mrtClean reports whether every MRT collector ingested without damage
// — the gate on persisting anything. A strict load that got this far
// is clean by definition.
func mrtClean(h *ingest.Health) bool {
	if h == nil {
		return true
	}
	for _, s := range h.Sources() {
		if strings.HasPrefix(s.Name, "mrt/") && !s.Clean() {
			return false
		}
	}
	return true
}

// collectorCounts flattens the per-collector record counts for the
// snapshot header, sorted by collector name.
func collectorCounts(b *archive.Bundle, h *ingest.Health) []ribsnap.CollectorCount {
	names := make([]string, 0, len(b.MRT))
	for name := range b.MRT {
		names = append(names, name)
	}
	sort.Strings(names)
	counts := make([]ribsnap.CollectorCount, 0, len(names))
	for _, name := range names {
		n := uint64(len(b.MRT[name]))
		if h != nil {
			n = h.Source("mrt/" + name).Records
		}
		counts = append(counts, ribsnap.CollectorCount{Collector: name, Records: n})
	}
	return counts
}
