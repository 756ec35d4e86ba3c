// Package delta builds a new RIB index generation from a frozen base
// plus the bytes appended to the MRT archive since the base was
// snapshotted — without re-decoding the consumed prefix of any file.
//
// The contract is append-only growth: every archive file the base
// consumed must still begin with exactly the bytes it consumed (checked
// by hashing the first Cursor.Size bytes and comparing against the
// cursor's SHA-256). New files are whole-file suffixes (a collector
// that came online after the base). Any rewrite, truncation, or
// removal fails Build, and the caller falls back to a cold rebuild —
// delta ingest may cost time, never correctness.
package delta

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dropscope/internal/mrt"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

// Result is a successful delta build: the merged frozen index, the
// per-collector record counts a snapshot of it should carry (base
// counts plus strictly decoded suffix records), the lineage for the
// new generation (new archive cursors, MaxDay), and the
// grown archive's digest, derived from the new cursors — the same
// single pass that verified the consumed prefixes — so callers persist
// the merged snapshot without a separate DigestMRT pass.
type Result struct {
	Frozen  *rib.Frozen
	Counts  []ribsnap.CollectorCount
	Lineage *ribsnap.Lineage
	Digest  [32]byte
}

// Build replays the archive suffix under mrtDir on top of base and
// merges. base must be the frozen index of the parent snapshot,
// baseLin/baseCounts its lineage and counts, baseWindow the window it
// was built for, and window the (same-start, same-or-later-end) window
// the merged index serves. The last parameter is ignored; it stays
// because benchmark/ passes one.
//
// Suffix decoding is strict: the first corrupt record or semantically
// unreplayable condition (a condition the lenient cold path would have
// skipped) fails the build, because an overlay cannot reproduce the
// cold path's per-record skip accounting. The caller's cold fallback
// then produces the canonical lenient result.
func Build(mrtDir string, base *rib.Frozen, baseLin *ribsnap.Lineage, baseCounts []ribsnap.CollectorCount, baseWindow, window timex.Range, _ [32]byte) (*Result, error) {
	if window.First != baseWindow.First {
		return nil, fmt.Errorf("delta: window start moved (%v -> %v)", baseWindow.First, window.First)
	}
	if window.Last < baseWindow.Last {
		return nil, fmt.Errorf("delta: window end moved backwards (%v -> %v)", baseWindow.Last, window.Last)
	}
	db, err := rib.NewDeltaBase(base, baseWindow.Last)
	if err != nil {
		return nil, err
	}

	entries, err := os.ReadDir(mrtDir)
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".mrt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	curByName := make(map[string]ribsnap.ArchiveCursor, len(baseLin.Cursors))
	for _, c := range baseLin.Cursors {
		curByName[c.Collector] = c
	}
	present := make(map[string]bool, len(names))

	var overlays []*rib.Overlay
	suffixCounts := make(map[string]uint64)
	newCursors := make([]ribsnap.ArchiveCursor, 0, len(names))
	for _, name := range names { // sorted, so overlays come out collector-ordered
		collector := strings.TrimSuffix(name, ".mrt")
		present[collector] = true
		suffix, nc, err := readSuffix(filepath.Join(mrtDir, name), collector, curByName)
		if err != nil {
			return nil, err
		}
		newCursors = append(newCursors, nc)
		if len(suffix) == 0 {
			continue
		}
		ov := db.NewOverlay(collector)
		r := mrt.NewReader(bytes.NewReader(suffix))
		var n uint64
		for {
			rec, rerr := r.Next()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return nil, fmt.Errorf("delta: %s suffix: %w", name, rerr)
			}
			if aerr := ov.Apply(rec); aerr != nil {
				return nil, fmt.Errorf("delta: %s suffix: %w", name, aerr)
			}
			n++
		}
		overlays = append(overlays, ov)
		suffixCounts[collector] = n
	}
	for _, c := range baseLin.Cursors {
		if !present[c.Collector] {
			return nil, fmt.Errorf("delta: collector %s removed from archive", c.Collector)
		}
	}

	merged, err := rib.MergeFrozen(db, overlays, window.Last)
	if err != nil {
		return nil, err
	}

	counts := mergeCounts(baseCounts, suffixCounts)
	lin := &ribsnap.Lineage{MaxDay: merged.MaxDay, Cursors: newCursors}
	return &Result{Frozen: merged, Counts: counts, Lineage: lin,
		Digest: ribsnap.DigestCursors(newCursors)}, nil
}

// readSuffix verifies the file at path still begins with the bytes its
// base cursor consumed (single pass: hash the prefix, compare, then
// keep hashing through the suffix for the new cursor) and returns the
// appended bytes. A file with no base cursor is a new collector: the
// whole file is suffix.
func readSuffix(path, collector string, curByName map[string]ribsnap.ArchiveCursor) ([]byte, ribsnap.ArchiveCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ribsnap.ArchiveCursor{}, fmt.Errorf("delta: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	var consumed uint64
	if cur, ok := curByName[collector]; ok {
		if _, err := io.CopyN(h, f, int64(cur.Size)); err != nil {
			// io.EOF here means the file shrank below the consumed prefix.
			return nil, ribsnap.ArchiveCursor{}, fmt.Errorf("delta: %s: consumed prefix unreadable (%v); not append-only", filepath.Base(path), err)
		}
		var sum [32]byte
		h.Sum(sum[:0])
		if sum != cur.Sum {
			return nil, ribsnap.ArchiveCursor{}, fmt.Errorf("delta: %s: consumed prefix rewritten; not append-only", filepath.Base(path))
		}
		consumed = cur.Size
	}
	// Sum does not reset the hash state, so continuing through the
	// suffix yields the whole-file hash for the new cursor.
	suffix, err := io.ReadAll(io.TeeReader(f, h))
	if err != nil {
		return nil, ribsnap.ArchiveCursor{}, fmt.Errorf("delta: %s: %w", filepath.Base(path), err)
	}
	nc := ribsnap.ArchiveCursor{Collector: collector, Size: consumed + uint64(len(suffix))}
	h.Sum(nc.Sum[:0])
	return suffix, nc, nil
}

// mergeCounts folds the suffix record counts into the base snapshot's
// per-collector counts, sorted by collector name — exactly the counts
// a cold build over the grown archive would record.
func mergeCounts(base []ribsnap.CollectorCount, suffix map[string]uint64) []ribsnap.CollectorCount {
	m := make(map[string]uint64, len(base)+len(suffix))
	for _, c := range base {
		m[c.Collector] = c.Records
	}
	for name, n := range suffix {
		m[name] += n
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ribsnap.CollectorCount, 0, len(names))
	for _, name := range names {
		out = append(out, ribsnap.CollectorCount{Collector: name, Records: m[name]})
	}
	return out
}
