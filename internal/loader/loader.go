// Package loader turns an archive directory into a queryable study: it
// is the one implementation of the resolve → delta | warm | cold →
// persist state machine that both the batch facade
// (dropscope.LoadStudyWithOptions) and the query daemon (serve.Load)
// run. Index generations are cached in one layout whoever opened the
// cache: a ribsnap.Store of generation directories, a monolith being a
// one-shard generation (see cache.go).
//
// Every route serves the index a cache-off cold build would: a cached
// generation can cost time, never correctness. DESIGN.md ("The load
// path") tabulates condition → route → what is persisted → what is
// counted in health.
package loader

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dropscope/internal/analysis"
	"dropscope/internal/archive"
	"dropscope/internal/delta"
	"dropscope/internal/filesum"
	"dropscope/internal/ingest"
	"dropscope/internal/mrt"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

// SnapshotSource is the ingest.Health source a discarded cached
// generation is accounted under.
const SnapshotSource = "ribsnap/index"

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
	// Store, when non-nil, caches index generations: each is read,
	// written and promoted through the manifest-backed store as a
	// generation directory (gen-<digest>/shard-<i>.ribsnap +
	// shards.manifest), and one journaled corrupt is refused. Nil loads
	// cache-off.
	Store *ribsnap.Store
	// Shards is how many prefix-range shards the generations this load
	// writes are cut into (<= 1 = one, the monolith); more than one needs
	// a Store. A generation is served in the K it was written with, so a
	// changed Shards takes effect at the next generation written — a cold
	// or delta load. Query results are identical whatever the K.
	Shards int
	// MemBudget caps how many file-backed shards keep their pages
	// resident at once (<= 0 keeps them all resident).
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
	// digest: the master of Shards when that is set, and a mapping-free
	// wrapper over the in-memory index otherwise, so every caller closes
	// (or refcounts) one thing.
	Snapshot *ribsnap.Snapshot
	// Shards is the residency manager of the store generation the index
	// is served from, nil for an index built in memory.
	Shards *ribsnap.ShardSet
	Route  Route
}

var (
	errNoGrowth = errors.New("loader: archive did not grow append-only past the previous generation")
	errWindow   = fmt.Errorf("%w: cached generation covers another study window", ribsnap.ErrStale)
	// errShardsNeedStore refuses Shards > 1 without a Store: sharded
	// generations exist only as store directories, and no load cuts an
	// index in memory.
	errShardsNeedStore = errors.New("loader: Shards > 1 needs a Store: a sharded index is served only from a snapshot store's generation directories")
)

// Load builds the study over the archive directory dir. The route
// order is fixed: the delta path is tried first because file sizes
// alone select it and its single pass over the archive yields the
// digest; otherwise the archive's digest — each file's sum from the
// store's archive manifest where its row holds, else from a read —
// keys the warm lookup; a miss builds cold and, when MRT ingest was
// clean, persists the generation for the next load.
func Load(dir string, o Options) (*Loaded, error) {
	h, st := o.Health, o.Store
	if o.Shards > 1 && st == nil {
		return nil, errShardsNeedStore
	}
	mrtDir := filepath.Join(dir, "mrt")
	var (
		l       = &Loaded{}
		digest  [32]byte
		keyed   bool // digest is the archive's
		cursors []ribsnap.ArchiveCursor
		files   = filesum.Open(dir, nil)
	)
	if st != nil {
		files = filesum.Open(dir, st.ReadArchiveManifest)
	}
	if st != nil && o.Delta {
		if l.Shards = tryDelta(st, o, files); l.Shards != nil {
			l.Route, digest, keyed = Delta, l.Shards.Digest(), true
		}
	}
	// The text load overlaps what the route does next: hashing the MRT
	// archive, the warm lookup, a cold build. It runs alone after a delta
	// build, whose peak memory it would add to, and at Workers 1, where
	// the whole load is serial.
	var (
		b        *archive.Bundle
		textErr  error
		textDone chan struct{}
	)
	topts := archive.LoadOptions{Health: h, Workers: o.Workers, Files: files}
	if st != nil {
		topts.Journal = st
	}
	text := func() { b, textErr = archive.LoadWithOptions(dir, topts) }
	if !keyed {
		if o.Workers != 1 {
			textDone = make(chan struct{})
			go func() {
				defer close(textDone)
				text()
			}()
		}
		// One read of the archive yields both the key and the lineage
		// cursors a cold build persists. An error (a missing mrt/
		// directory) falls through: the archive load reports it.
		if cur, err := ribsnap.SumCursors(files, "mrt", o.Workers); err == nil {
			cursors, digest, keyed = cur, ribsnap.DigestCursors(cur), true
			if st != nil {
				if l.Shards = warm(st, o, digest); l.Shards != nil {
					l.Route = Warm
				}
			}
		}
	}
	if l.Shards != nil {
		l.Snapshot = l.Shards.Master()
	}

	var (
		ix     *rib.Index
		counts []ribsnap.CollectorCount
		mrtErr error
	)
	if l.Shards == nil {
		ix, counts, mrtErr = build(mrtDir, o)
	}
	if textDone != nil {
		<-textDone
	} else {
		text()
	}
	// Every file this load sums has been summed: the archive manifest is
	// encoded and written while the pipeline builds (in line at Workers
	// 1), and Load returns once it is. Best-effort: without the manifest
	// the next load reads what it sums.
	if st != nil {
		save := func() {
			if b, changed := files.Encode(); changed {
				_ = st.WriteArchiveManifest(b)
			}
		}
		if o.Workers == 1 {
			save()
		} else {
			saved := make(chan struct{})
			go func() { defer close(saved); save() }()
			defer func() { <-saved }()
		}
	}
	if err := loadError(mrtErr, textErr); err != nil {
		l.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	aopts := analysis.Options{Health: h, Index: ix}
	if l.Shards != nil {
		var err error
		if aopts.Index, err = l.Shards.Querier(o.Workers); err != nil {
			l.close()
			return nil, fmt.Errorf("cached index: %w", err)
		}
	}
	p, err := analysis.NewWithOptions(analysis.Dataset{
		Window: o.Window,
		DROP:   b.DROP, SBL: b.SBL, IRR: b.IRR, RPKI: b.RPKI, RIR: b.RIR,
	}, aopts)
	if err != nil {
		l.close()
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	l.Pipeline = p

	if l.Shards != nil {
		if h != nil {
			// Replay the per-collector record counts the generation
			// preserved, so health reports what a cold build would.
			for _, cc := range l.Snapshot.Counts {
				h.Source("mrt/" + cc.Collector).Accept(cc.Records)
			}
		}
	} else {
		l.Snapshot = &ribsnap.Snapshot{Index: ix, Window: o.Window, Digest: digest}
		// A partial index must never masquerade as the archive's: only
		// clean MRT ingest is persisted. Best-effort beyond that — a
		// failed write leaves the load unaffected.
		if st != nil && keyed && mrtClean(h) {
			lin := &ribsnap.Lineage{MaxDay: ix.MaxDay(), Cursors: cursors}
			if persist(st, o, ix, digest, counts, lin) == nil && o.Shards > 1 {
				// Serve the reopened, file-backed shards, so a cold build
				// and the warm start after it answer from identical bytes.
				if ss, err := st.LoadShards(digest, o.MemBudget); err == nil {
					if q, err := ss.Querier(o.Workers); err == nil {
						p.Index, l.Snapshot, l.Shards = q, ss.Master(), ss
					} else {
						ss.Close()
					}
				}
			}
		}
	}
	// Journal digest live only when the store holds it: a load that
	// refused to persist (damaged MRT ingest) or failed to must not
	// retire the last good generation — the next delta's base — in
	// favour of nothing. A journal failure is operational, not a serving
	// problem; the next promote retries.
	if st != nil && keyed && st.HasShards(digest) {
		_ = st.Promote(digest)
	}
	return l, nil
}

// close releases what a failed load had opened.
func (l *Loaded) close() {
	if l.Snapshot != nil {
		l.Snapshot.Close()
	}
}

// warm maps the store's generation for digest, in whatever K it was
// written with. It returns nil, counting the discard, when the
// generation does not open or covers another window. A miss while
// another generation is promoted is the archive having changed under
// the cache without the delta path extending it: counted as stale,
// once, so a lenient report says why the load went cold.
func warm(st *ribsnap.Store, o Options, digest [32]byte) *ribsnap.ShardSet {
	ss, err := st.LoadShards(digest, o.MemBudget)
	if err == nil && ss.Window() != o.Window {
		ss.Close()
		err = errWindow
	}
	if prev, ok := st.Promoted(); os.IsNotExist(err) && ok && prev != digest {
		err = ribsnap.ErrStale
	}
	if err != nil {
		countSnapshotSkip(o.Health, err)
		return nil
	}
	return ss
}

// tryDelta takes the incremental path when the archive grew
// append-only past the store's promoted generation: merge the appended
// bytes onto it, persist the result under the digest the merge's own
// pass derived, and map it back. It returns nil when the delta cannot
// be taken — no previous generation, no lineage, no growth, a
// rewritten prefix, a decode error in the suffix, a window that moved
// backwards, a persist failure — and the caller carries on with the
// hash-and-look-up routes.
func tryDelta(st *ribsnap.Store, o Options, files *filesum.Manifest) *ribsnap.ShardSet {
	b := previous(st)
	if b == nil {
		return nil
	}
	// The merged index aliases the base until it is persisted; the
	// served mapping must never alias a retired one. So: write, release
	// the base, then map the result from disk.
	digest, err := b.extend(st, o, files)
	b.close()
	if err != nil {
		return nil
	}
	ss, err := st.LoadShards(digest, o.MemBudget)
	if err != nil {
		return nil
	}
	return ss
}

// extend merges the archive's appended bytes onto the base, if sizes
// say it grew, and persists the result under the digest it returns.
// The build reads every MRT file whole, so its cursors are the files'
// sums: they are recorded in files for each file that stats after the
// build as it did before.
func (b *base) extend(st *ribsnap.Store, o Options, files *filesum.Manifest) ([32]byte, error) {
	lin, mrtDir := b.ss.Lineage(), files.Path("mrt")
	if !archiveGrew(mrtDir, lin.Cursors) {
		return [32]byte{}, errNoGrowth
	}
	f, err := b.frozen()
	if err != nil {
		return [32]byte{}, err
	}
	before := map[string]filesum.Stat{}
	entries, _ := os.ReadDir(mrtDir)
	for _, e := range entries {
		before[e.Name()], _ = files.Stat("mrt/" + e.Name())
	}
	res, err := delta.Build(mrtDir, f, lin, b.ss.Counts(), b.ss.Window(), o.Window, [32]byte{})
	if err != nil {
		return [32]byte{}, err
	}
	for _, c := range res.Lineage.Cursors {
		name := c.Collector + ".mrt"
		files.Record("mrt/"+name, before[name], filesum.Sum{Size: c.Size, SHA: c.Sum})
	}
	ix, err := rib.FromFrozen(res.Frozen)
	if err != nil {
		return [32]byte{}, err
	}
	return res.Digest, persist(st, o, ix, res.Digest, res.Counts, res.Lineage)
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

// build decodes each collector's MRT file once, through a pooled
// reader, straight into its RIB (rib.Build), and returns the closed
// index with the per-collector record counts a generation header keeps,
// in collector order.
func build(mrtDir string, o Options) (*rib.Index, []ribsnap.CollectorCount, error) {
	entries, err := os.ReadDir(mrtDir)
	if err != nil {
		return nil, nil, readError{err}
	}
	var (
		files   []*mrtFile
		streams []rib.Stream
	)
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".mrt"); ok && !e.IsDir() {
			f := &mrtFile{path: filepath.Join(mrtDir, e.Name())}
			files = append(files, f)
			streams = append(streams, rib.Stream{Name: name, Open: f.open})
		}
	}
	ix, err := rib.Build(streams, o.Window.Last, o.Workers, o.Health, o.MaxSkip)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]ribsnap.CollectorCount, len(files))
	for i, f := range files {
		counts[i] = ribsnap.CollectorCount{Collector: streams[i].Name, Records: f.records}
	}
	slices.SortFunc(counts, func(a, b ribsnap.CollectorCount) int { return strings.Compare(a.Collector, b.Collector) })
	return ix, counts, nil
}

// mrtFile is one collector's archive file as a rib.Stream: opened by the
// worker that reassembles it and decoded through a pooled reader, so no
// record outlives the next one.
type mrtFile struct {
	path    string
	f       *os.File
	r       *mrt.Reader
	records uint64 // records decoded
}

func (m *mrtFile) open(src *ingest.Source) (rib.RecordSource, error) {
	f, err := os.Open(m.path)
	if err != nil {
		return nil, readError{err}
	}
	opts := []mrt.Option{mrt.ReuseRecords()}
	if src != nil {
		opts = append(opts, mrt.Lenient(), mrt.WithSource(src))
	}
	m.f, m.r = f, mrt.NewReader(bufio.NewReaderSize(f, 64<<10), opts...)
	return m, nil
}

func (m *mrtFile) Next() (mrt.Record, error) {
	rec, err := m.r.Next()
	switch {
	case err == nil:
		m.records++
	case err != io.EOF:
		err = readError{fmt.Errorf("archive: %s: %w", filepath.Base(m.path), err)}
	}
	return rec, err
}

func (m *mrtFile) Close() error {
	m.r.Release()
	return m.f.Close()
}

// readError is a failure to read the MRT archive: a directory or file
// that does not open, a record that does not decode.
type readError struct{ error }

func (e readError) Unwrap() error { return e.error }

// loadError is the error a load reports, in one order whatever ran
// concurrently: the MRT archive's bytes, then the text archives (in
// archive.LoadWithOptions's source order), then reassembly.
func loadError(mrtErr, textErr error) error {
	if textErr == nil || errors.As(mrtErr, new(readError)) {
		return mrtErr
	}
	return textErr
}
