package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dropscope/internal/analysis"
	"dropscope/internal/archive"
	"dropscope/internal/ingest"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

// snapshotSource and snapshotFile mirror the facade's warm-start
// accounting so a daemon load reports snapshot health under the same
// source name a batch load does.
const (
	snapshotSource = "ribsnap/index"
	snapshotFile   = "index.ribsnap"
)

// LoadOptions configures Load.
type LoadOptions struct {
	// Window is the study window the generation must cover.
	Window timex.Range
	// MaxSkip is the per-collector skip budget (0 = ingest default,
	// negative = unlimited). Daemon loads are always lenient: a damaged
	// collector quarantines, it does not take the service down.
	MaxSkip int
	// Workers bounds the cold-build RIB loading pool, the archive's
	// text load (archive.LoadOptions.Workers) and the sharded index's
	// fan-out pool.
	Workers int
	// SnapshotDir, when non-empty, warm-starts from
	// SnapshotDir/index.ribsnap when it matches the archive digest, and
	// persists a fresh snapshot there after a clean cold build so the
	// next load (a SIGHUP reload, a restart) maps instead of rebuilding.
	SnapshotDir string
	// Store, when non-nil, supersedes SnapshotDir: warm starts load the
	// generation through the manifest-backed store (which refuses
	// generations journaled corrupt and falls back to the legacy
	// index.ribsnap), and clean cold builds are written and promoted
	// through it. This is the daemon path; the bare SnapshotDir path
	// remains for single-owner batch use.
	Store *ribsnap.Store
	// Health, when non-nil, receives the load's ingest accounting
	// instead of a fresh accumulator — the reload supervisor seeds it
	// with the retry count that preceded a successful reload, so the
	// generation's own health report records what it came to be.
	Health *ingest.Health
	// Shards, when > 1, serves a prefix-range sharded index: the frozen
	// index is cut into Shards independently mmap-able pieces. With a
	// Store, clean cold builds persist the sharded generation layout
	// (gen-<digest>/shard-<i>.ribsnap + shards.manifest) and warm starts
	// reload it; without one the cut happens in memory. Query semantics
	// are identical to the single index.
	Shards int
	// MemBudget caps how many shards stay memory-mapped at once for a
	// store-backed sharded generation (<= 0 keeps them all resident).
	// Cold ranges fault back in on demand; the least recently used
	// shard is evicted when the budget is exceeded.
	MemBudget int
	// Delta, when true, lets a load whose snapshot went stale try the
	// incremental append path before rebuilding cold: if the previous
	// generation carries archive cursors and every archive file grew
	// strictly append-only, only the appended bytes are decoded (into
	// an overlay keyed on the frozen base) and merged into the new
	// generation. Any violation — a rewritten file, a corrupt suffix, a
	// base without lineage — silently falls back to the cold rebuild,
	// so the result is always byte-identical to one.
	Delta bool
}

// Load builds one serving generation from the archive directory: warm
// from the snapshot when it matches the archive's MRT digest, cold
// otherwise. A cold build over clean MRT ingest persists the snapshot
// for the next load. The returned generation always carries the archive
// digest — it is the identity every response reports.
func Load(dir string, opts LoadOptions) (*Generation, error) {
	h := opts.Health
	if h == nil {
		h = ingest.NewHealth()
	}
	var (
		snap       *ribsnap.Snapshot
		shards     *ribsnap.ShardSet
		digest     [32]byte
		haveDigest bool
		snapPath   string
		staleErr   error // deferred stale-snapshot skip while the delta path may adopt it
		deltaBuilt bool
	)
	if opts.SnapshotDir != "" {
		snapPath = filepath.Join(opts.SnapshotDir, snapshotFile)
		// Startup sweep for the store-less path (the store sweeps at
		// open): temps orphaned by a crashed write are pure debris.
		_, _ = ribsnap.SweepTemps(opts.SnapshotDir)
	}
	// One read of the archive yields both the generation's identity
	// digest and the lineage cursors a clean cold build will persist
	// (DigestMRT is the same fold; see ribsnap.DigestCursors).
	cursors, curErr := ribsnap.ArchiveCursors(filepath.Join(dir, "mrt"))
	if curErr == nil {
		digest, haveDigest = ribsnap.DigestCursors(cursors), true
		// The sharded layout is tried first: a generation directory with
		// a valid manifest is complete by construction (the manifest is
		// written last), and it is what a sharded daemon wrote on its
		// previous clean build.
		if opts.Store != nil && opts.Shards > 1 && opts.Store.HasShards(digest) {
			ss, lerr := opts.Store.LoadShards(digest, opts.MemBudget)
			switch {
			case lerr != nil:
				countSnapshotSkip(h, lerr)
			case ss.Window() != opts.Window:
				ss.Close()
				h.Source(snapshotSource).Skip(ingest.Unsupported)
			default:
				shards = ss
			}
		}
		if shards == nil {
			var (
				s    *ribsnap.Snapshot
				lerr error
				try  bool
			)
			switch {
			case opts.Store != nil:
				s, lerr = opts.Store.Load(digest)
				try = true
			case snapPath != "":
				s, lerr = ribsnap.Load(snapPath, digest)
				try = true
			}
			if try {
				switch {
				case lerr != nil && opts.Delta && errors.Is(lerr, ribsnap.ErrStale):
					// The archive moved on under an intact snapshot — the
					// delta candidate. Defer the skip accounting: a
					// successful delta serves exactly what a cache-off cold
					// build would, so its health must not record a discard.
					staleErr = lerr
				case lerr != nil:
					countSnapshotSkip(h, lerr)
				case s.Window != opts.Window:
					s.Close()
					h.Source(snapshotSource).Skip(ingest.Unsupported)
				default:
					snap = s
				}
			}
		}
		// A single-file generation under -shards: upgrade it in place.
		// The mapped monolith is already the frozen index, so cut it,
		// persist the sharded layout, and reopen under the residency
		// budget — enabling sharding on an existing deployment takes
		// effect on the first restart, not only after the snapshot is
		// invalidated and cold-rebuilt. Best-effort: any failure keeps
		// serving the single mapping (the in-memory cut below still
		// gives fan-out, just not bounded residency).
		if opts.Shards > 1 && opts.Store != nil && shards == nil && snap != nil {
			if fs, ferr := snap.Index.FrozenShards(opts.Shards, opts.Workers); ferr == nil {
				if werr := opts.Store.WriteShardsLineage(fs, opts.Window, digest, snap.Counts, opts.Workers, snap.Lineage); werr == nil {
					if ss, lerr := opts.Store.LoadShards(digest, opts.MemBudget); lerr == nil {
						shards = ss
					}
				}
			}
			if shards != nil {
				snap.Close()
				snap = nil
			}
		}
		// Incremental append: no generation matched the current digest,
		// but the previous one may cover a byte-prefix of the archive.
		if opts.Delta && snap == nil && shards == nil {
			snap, shards = tryDelta(dir, opts, digest, snapPath, staleErr != nil)
			if snap != nil || shards != nil {
				deltaBuilt = true
				staleErr = nil
			}
		}
		if staleErr != nil {
			countSnapshotSkip(h, staleErr)
		}
	}
	warm := snap != nil || shards != nil

	b, err := archive.LoadWithOptions(dir, archive.LoadOptions{Health: h, SkipMRT: warm, Workers: opts.Workers})
	if err != nil {
		if snap != nil {
			snap.Close()
		}
		if shards != nil {
			shards.Close()
		}
		return nil, fmt.Errorf("serve: load: %w", err)
	}
	aopts := analysis.Options{
		Workers: opts.Workers,
		Lenient: true,
		MaxSkip: opts.MaxSkip,
		Health:  h,
	}
	switch {
	case shards != nil:
		sh, serr := shards.Sharded(opts.Workers)
		if serr != nil {
			shards.Close()
			return nil, fmt.Errorf("serve: sharded index: %w", serr)
		}
		aopts.Index = sh
		// The master snapshot gives the sharded set the exact snapshot
		// lifecycle a single mapping has: pinned per request, closed on
		// swap, drained by refcount.
		snap = shards.Master()
	case snap != nil:
		aopts.Index = snap.Index
	}
	p, err := analysis.NewWithOptions(analysis.Dataset{
		Window: opts.Window,
		DROP:   b.DROP, SBL: b.SBL, IRR: b.IRR, RPKI: b.RPKI, RIR: b.RIR,
		MRT: b.MRT,
	}, aopts)
	if err != nil {
		if snap != nil {
			snap.Close()
		}
		return nil, fmt.Errorf("serve: pipeline: %w", err)
	}
	if warm {
		// Replay the per-collector record counts the snapshot preserved
		// so /metrics reports what a cold build would.
		for _, c := range snap.Counts {
			h.Source("mrt/" + c.Collector).Accept(c.Records)
		}
	} else {
		if haveDigest {
			if opts.Shards > 1 && opts.Store != nil {
				// Persist the sharded layout and serve the reopened,
				// file-backed shards, so a cold build and the warm start
				// that follows it answer from the identical bytes.
				if ss := persistShards(opts, p, b, h, digest, cursors); ss != nil {
					if sh, serr := ss.Sharded(opts.Workers); serr == nil {
						p.Index = sh
						shards = ss
						snap = ss.Master()
					} else {
						ss.Close()
					}
				}
			} else {
				persistSnapshot(opts, snapPath, p, b, h, digest, cursors)
			}
		}
		if snap == nil {
			// Serve the cold-built index behind a mapping-free snapshot: the
			// generation lifecycle (refcount, Close-on-swap) is identical.
			ix, _ := p.Index.(*rib.Index)
			snap = &ribsnap.Snapshot{Index: ix, Window: opts.Window, Digest: digest}
		}
	}
	// In-memory cut: sharding was requested but the index is still the
	// monolith (store-less cold build, warm single-file start, or a
	// failed sharded persist). Queries then run the same fan-out paths a
	// file-backed sharded generation does, minus the residency budget.
	if opts.Shards > 1 && shards == nil {
		if ix, ok := p.Index.(*rib.Index); ok {
			if fs, ferr := ix.FrozenShards(opts.Shards, opts.Workers); ferr == nil {
				if sh, serr := rib.ShardedFromFrozen(fs, opts.Workers); serr == nil {
					p.Index = sh
				}
			}
		}
	}
	if opts.Store != nil && haveDigest {
		// Journal the generation as live. A failure here is operational
		// (the journal write), not a serving problem — the generation is
		// good; the next promote retries.
		_ = opts.Store.Promote(digest)
	}
	g := newGeneration(snap, shards, p)
	g.deltaBuilt = deltaBuilt
	return g, nil
}

// countSnapshotSkip classifies a discarded snapshot in the health
// accounting, as the batch loader does: a missing snapshot (first run)
// counts nothing; truncation, corruption, version skew, and staleness
// each count one skip.
func countSnapshotSkip(h *ingest.Health, err error) {
	if os.IsNotExist(err) {
		return
	}
	src := h.Source(snapshotSource)
	switch {
	case errors.Is(err, ribsnap.ErrTruncated):
		src.Skip(ingest.Truncated)
	case errors.Is(err, ribsnap.ErrVersion), errors.Is(err, ribsnap.ErrStale):
		src.Skip(ingest.Unsupported)
	default:
		src.Skip(ingest.Corrupt)
	}
}

// mrtClean reports whether every MRT collector ingested without damage
// — the gate on persisting anything: a partial index must never
// masquerade as the archive's.
func mrtClean(h *ingest.Health) bool {
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
		counts = append(counts, ribsnap.CollectorCount{
			Collector: name,
			Records:   h.Source("mrt/" + name).Records,
		})
	}
	return counts
}

// coldLineage builds the lineage a clean cold build persists: no
// parent, the index's max record day, and the archive cursors from the
// same read that produced the generation's digest — the base state the
// next load's delta path resumes from.
func coldLineage(cursors []ribsnap.ArchiveCursor, f *rib.Frozen) *ribsnap.Lineage {
	return &ribsnap.Lineage{MaxDay: f.MaxDay, Cursors: cursors}
}

// persistSnapshot writes the freshly built index for the next load —
// through the manifest-backed store when one is configured, else to
// the bare snapshot path. Best-effort, and it refuses to persist an
// index built from damaged MRT ingest.
func persistSnapshot(opts LoadOptions, path string, p *analysis.Pipeline, b *archive.Bundle, h *ingest.Health, digest [32]byte, cursors []ribsnap.ArchiveCursor) {
	if opts.Store == nil && path == "" {
		return
	}
	if !mrtClean(h) {
		return
	}
	ix, ok := p.Index.(*rib.Index)
	if !ok {
		return
	}
	f, err := ix.Frozen()
	if err != nil {
		return
	}
	counts := collectorCounts(b, h)
	lin := coldLineage(cursors, f)
	if opts.Store != nil {
		_ = opts.Store.WriteLineage(f, opts.Window, digest, counts, lin)
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	_ = ribsnap.WriteLineage(path, f, opts.Window, digest, counts, lin)
}

// persistShards cuts the cold-built index into opts.Shards prefix
// ranges, writes them through the store as a sharded generation
// directory, and reopens the result under the residency budget. Any
// failure (unclean ingest, a write error) returns nil and the caller
// falls back to an in-memory cut — best-effort, like persistSnapshot.
func persistShards(opts LoadOptions, p *analysis.Pipeline, b *archive.Bundle, h *ingest.Health, digest [32]byte, cursors []ribsnap.ArchiveCursor) *ribsnap.ShardSet {
	if !mrtClean(h) {
		return nil
	}
	ix, ok := p.Index.(*rib.Index)
	if !ok {
		return nil
	}
	fs, err := ix.FrozenShards(opts.Shards, opts.Workers)
	if err != nil {
		return nil
	}
	var lin *ribsnap.Lineage
	if len(fs) > 0 {
		// Lineage is global (cursors span the whole archive), so any
		// shard's MaxDay-bearing frozen works; shard 0 carries the
		// global MaxDay like every other.
		lin = coldLineage(cursors, fs[0])
	}
	if err := opts.Store.WriteShardsLineage(fs, opts.Window, digest, collectorCounts(b, h), opts.Workers, lin); err != nil {
		return nil
	}
	ss, err := opts.Store.LoadShards(digest, opts.MemBudget)
	if err != nil {
		return nil
	}
	return ss
}
