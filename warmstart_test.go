package dropscope

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dropscope/internal/ingest"
	"dropscope/internal/loader"
	"dropscope/internal/ribsnap"
)

// shardFile returns the path of the one generation's first shard in the
// snapshot store under snapDir — the file a warm start maps first —
// failing unless the store holds exactly one generation.
func shardFile(t *testing.T, snapDir string) string {
	t.Helper()
	gens, err := filepath.Glob(filepath.Join(snapDir, "gen-*", ribsnap.ShardFileName(0)))
	if err != nil || len(gens) != 1 {
		t.Fatalf("snapshot store holds generations %v (%v), want one", gens, err)
	}
	return gens[0]
}

// writeArchivesWithSnapshot persists the cached study's archives, runs
// one cold cached load to seed the snapshot store, and returns the
// archive and store directories.
func writeArchivesWithSnapshot(t *testing.T) (dir, snapDir string) {
	t.Helper()
	s := study(t)
	dir = t.TempDir()
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	snapDir = filepath.Join(dir, "ribsnap")
	first, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	if first.snap != nil {
		t.Fatal("first cached load must be cold")
	}
	shardFile(t, snapDir)
	return dir, snapDir
}

func renderStudy(t *testing.T, s *Study, serial bool) string {
	t.Helper()
	var b strings.Builder
	var r Results
	if serial {
		r = s.ResultsSerial()
	} else {
		r = s.Results()
	}
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWarmStartByteIdentical is the headline warm-start contract: a
// study served from the snapshot renders byte-for-byte what a cold
// build renders, in lenient and strict mode, under parallel and serial
// experiment scheduling.
func TestWarmStartByteIdentical(t *testing.T) {
	dir, snapDir := writeArchivesWithSnapshot(t)

	coldLenient, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refParallel := renderStudy(t, coldLenient, false)
	refSerial := renderStudy(t, coldLenient, true)
	coldStrict, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	refStrict := renderStudy(t, coldStrict, false)

	warm, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.snap == nil {
		t.Fatal("expected a warm start from the snapshot")
	}
	if got := renderStudy(t, warm, false); got != refParallel {
		t.Error("warm parallel render differs from cold")
	}
	if got := renderStudy(t, warm, true); got != refSerial {
		t.Error("warm serial render differs from cold")
	}
	if refParallel != refSerial {
		t.Error("parallel and serial renders differ")
	}

	warmStrict, err := LoadStudyWithOptions(dir, smallConfig(),
		IngestOptions{Strict: true, SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer warmStrict.Close()
	if warmStrict.snap == nil {
		t.Fatal("expected a strict warm start")
	}
	if got := renderStudy(t, warmStrict, false); got != refStrict {
		t.Error("strict warm render differs from strict cold")
	}

	// Workers must not matter on the warm path (no RIB loading happens).
	warmSerial, err := LoadStudyWithOptions(dir, smallConfig(),
		IngestOptions{Workers: 1, SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer warmSerial.Close()
	if got := renderStudy(t, warmSerial, true); got != refSerial {
		t.Error("workers=1 warm render differs from cold serial")
	}
}

// snapshotSkip returns the snapshot source's skip counters from a
// rendered health report, and whether the source appeared at all.
func snapshotSkip(r Results) (ingest.Counters, bool) {
	for _, src := range r.Health.Sources {
		if src.Name == loader.SnapshotSource {
			return src.Skips, true
		}
	}
	return ingest.Counters{}, false
}

// TestWarmStartDamagedSnapshotFallsBack flips one byte of the snapshot:
// the load must silently degrade to a cold build (never wrong results),
// count the discarded snapshot in the health report, and rewrite a good
// snapshot for the next run.
func TestWarmStartDamagedSnapshotFallsBack(t *testing.T) {
	dir, snapDir := writeArchivesWithSnapshot(t)
	path := shardFile(t, snapDir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	if st.snap != nil {
		t.Fatal("damaged snapshot must not warm-start")
	}
	r := st.Results()
	skips, ok := snapshotSkip(r)
	if !ok {
		t.Fatal("discarded snapshot missing from health report")
	}
	if skips.Total() != 1 {
		t.Errorf("snapshot skips = %d, want 1", skips.Total())
	}

	// The cold rebuild must have replaced the damaged file.
	again, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.snap == nil {
		t.Fatal("snapshot was not rewritten after the damaged one was discarded")
	}
}

// TestWarmStartTruncatedSnapshotFallsBack is the same contract under
// truncation, checking the skip lands on the Truncated counter.
func TestWarmStartTruncatedSnapshotFallsBack(t *testing.T) {
	dir, snapDir := writeArchivesWithSnapshot(t)
	path := shardFile(t, snapDir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:32], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.snap != nil {
		t.Fatal("truncated snapshot must not warm-start")
	}
	skips, ok := snapshotSkip(st.Results())
	if !ok {
		t.Fatal("discarded snapshot missing from health report")
	}
	if skips[ingest.Truncated] != 1 {
		t.Errorf("truncated counter = %d, want 1", skips[ingest.Truncated])
	}
}

// TestWarmStartStaleDigestRebuilds changes the archive under the
// snapshot (an extra collector file) and checks the stale snapshot is
// discarded, the study is rebuilt cold over the new archive, and the
// snapshot is rewritten for the new digest.
func TestWarmStartStaleDigestRebuilds(t *testing.T) {
	dir, snapDir := writeArchivesWithSnapshot(t)

	entries, err := os.ReadDir(filepath.Join(dir, "mrt"))
	if err != nil {
		t.Fatal(err)
	}
	var donor string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mrt") {
			donor = e.Name()
			break
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "mrt", donor))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mrt", "zzstale.mrt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	if st.snap != nil {
		t.Fatal("stale snapshot must not warm-start")
	}
	skips, ok := snapshotSkip(st.Results())
	if !ok {
		t.Fatal("stale snapshot missing from health report")
	}
	if skips[ingest.Unsupported] != 1 {
		t.Errorf("unsupported counter = %d, want 1", skips[ingest.Unsupported])
	}

	// Rewritten under the new digest: the next load is warm and renders
	// what a cache-less cold load over the modified archive renders.
	warm, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.snap == nil {
		t.Fatal("snapshot was not rewritten for the new digest")
	}
	cold, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if renderStudy(t, warm, false) != renderStudy(t, cold, false) {
		t.Error("warm render over modified archive differs from cold")
	}
}

// TestWarmStartWindowMismatchRebuilds: a snapshot built for one analysis
// window must not serve a different one.
func TestWarmStartWindowMismatchRebuilds(t *testing.T) {
	dir, snapDir := writeArchivesWithSnapshot(t)
	cfg := smallConfig()
	cfg.Window.Last--
	st, err := LoadStudyWithOptions(dir, cfg, IngestOptions{SnapshotDir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.snap != nil {
		t.Fatal("window-mismatched snapshot must not warm-start")
	}
	skips, ok := snapshotSkip(st.Results())
	if !ok {
		t.Fatal("window-mismatched snapshot missing from health report")
	}
	if skips[ingest.Unsupported] != 1 {
		t.Errorf("unsupported counter = %d, want 1", skips[ingest.Unsupported])
	}
}
