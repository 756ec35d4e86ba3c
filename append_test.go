package dropscope

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// growableArchive generates a private world (never the shared cached
// study — amplification mutates the world in place), writes its
// archives, and seeds the snapshot with one cold cached load.
func growableArchive(t *testing.T) (s *Study, dir, snapDir string) {
	t.Helper()
	cfg := smallConfig()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	snapDir = filepath.Join(dir, "ribsnap")
	first, err := LoadStudyWithOptions(dir, cfg, IngestOptions{SnapshotDir: snapDir, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.snap != nil {
		t.Fatal("first cached load must be cold")
	}
	return s, dir, snapDir
}

// copySnapshot clones the seeded snapshot store into a fresh
// directory, so each mode of the append test starts from the same stale
// base.
func copySnapshot(t *testing.T, snapDir string) string {
	t.Helper()
	clone := t.TempDir()
	if err := os.CopyFS(clone, os.DirFS(snapDir)); err != nil {
		t.Fatal(err)
	}
	return clone
}

// loadAppend runs an append-enabled load and asserts it actually took
// the delta path: the returned study is snapshot-backed even though the
// snapshot on disk was stale, which a plain warm start cannot be.
func loadAppend(t *testing.T, dir string, opts IngestOptions) *Study {
	t.Helper()
	opts.Append = true
	st, err := LoadStudyWithOptions(dir, smallConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.snap == nil {
		t.Fatal("append-enabled load over a grown archive did not take the delta path")
	}
	return st
}

// TestAppendByteIdentical is the headline incremental-ingest contract:
// after the archives grow append-only, a load that merges only the
// appended bytes onto the stale snapshot renders byte-for-byte what a
// cold rebuild of the grown archive renders — in lenient and strict
// mode, under parallel and serial experiment scheduling, and served
// from a sharded index.
func TestAppendByteIdentical(t *testing.T) {
	s, dir, snapDir := growableArchive(t)
	strictSnap := copySnapshot(t, snapDir)
	shardSnap := copySnapshot(t, snapDir)

	if records, _ := s.AmplifyVolume(8, 401); records == 0 {
		t.Fatal("AmplifyVolume appended nothing")
	}
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}

	cold, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refParallel := renderStudy(t, cold, false)
	refSerial := renderStudy(t, cold, true)
	coldStrict, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	refStrict := renderStudy(t, coldStrict, false)

	merged := loadAppend(t, dir, IngestOptions{SnapshotDir: snapDir})
	defer merged.Close()
	r := merged.Results()
	if _, counted := snapshotSkip(r); counted {
		t.Error("delta load counted a snapshot skip; its health must match a cache-off cold run")
	}
	if got := renderStudy(t, merged, false); got != refParallel {
		t.Error("append parallel render differs from cold rebuild")
	}
	if got := renderStudy(t, merged, true); got != refSerial {
		t.Error("append serial render differs from cold rebuild")
	}

	mergedStrict := loadAppend(t, dir, IngestOptions{Strict: true, SnapshotDir: strictSnap})
	defer mergedStrict.Close()
	if got := renderStudy(t, mergedStrict, false); got != refStrict {
		t.Error("strict append render differs from strict cold rebuild")
	}

	sharded := loadAppend(t, dir, IngestOptions{SnapshotDir: shardSnap, Shards: 4, Workers: 1})
	defer sharded.Close()
	if got := renderStudy(t, sharded, true); got != refSerial {
		t.Error("sharded append render differs from cold rebuild")
	}

	// The merged snapshot replaced the stale one: the next load is a
	// plain warm start under the grown archive's digest.
	again, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.snap == nil {
		t.Fatal("merged snapshot was not persisted under the grown archive's digest")
	}
	if got := renderStudy(t, again, false); got != refParallel {
		t.Error("warm start from the merged snapshot differs from cold rebuild")
	}
}

// TestAppendFallsBackOnRewrite pins the safety property at the facade:
// when a byte the snapshot already consumed was rewritten, the append
// path must refuse, count the stale snapshot, and rebuild cold — with
// a correct report.
func TestAppendFallsBackOnRewrite(t *testing.T) {
	s, dir, snapDir := growableArchive(t)
	if records, _ := s.AmplifyVolume(8, 402); records == 0 {
		t.Fatal("AmplifyVolume appended nothing")
	}
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "mrt"))
	if err != nil {
		t.Fatal(err)
	}
	var mrtFile string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mrt") {
			mrtFile = filepath.Join(dir, "mrt", e.Name())
			break
		}
	}
	raw, err := os.ReadFile(mrtFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0x01 // timestamp byte: record stays decodable, bytes differ
	if err := os.WriteFile(mrtFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := LoadStudyWithOptions(dir, smallConfig(),
		IngestOptions{SnapshotDir: snapDir, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.snap != nil {
		t.Fatal("rewritten archive still took the delta path")
	}
	skips, ok := snapshotSkip(st.Results())
	if !ok {
		t.Fatal("discarded snapshot missing from health report")
	}
	if skips.Total() != 1 {
		t.Errorf("snapshot skips = %d, want 1", skips.Total())
	}

	// The cold rebuild rewrote the snapshot: the next load warm-starts
	// with clean health and renders what a cache-off cold load renders.
	again, err := LoadStudyWithOptions(dir, smallConfig(),
		IngestOptions{SnapshotDir: snapDir, Append: true})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.snap == nil {
		t.Fatal("snapshot was not rewritten after the fallback rebuild")
	}
	cold, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if renderStudy(t, again, false) != renderStudy(t, cold, false) {
		t.Error("post-fallback warm render differs from cold")
	}
}
