package ribsnap

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// storeFixture builds a frozen index once for the store tests: the
// monolith, one shard.
func storeFixture(t testing.TB) ([]*rib.Frozen, timex.Range) {
	t.Helper()
	ix, window := randomIndex(t, 99)
	frozen, err := ix.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	return []*rib.Frozen{frozen}, window
}

// loadGen maps a generation and closes it, reporting only the error.
func loadGen(st *Store, d [32]byte) error {
	ss, err := st.LoadShards(d, 0)
	if err != nil {
		return err
	}
	return ss.Close()
}

func TestStoreWritePromoteLoad(t *testing.T) {
	frozen, window := storeFixture(t)
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := dg(0xA1)
	if err := st.WriteShardsLineage(frozen, window, a, nil, 0, lineageOf(frozen[0])); err != nil {
		t.Fatal(err)
	}
	if got := st.Manifest().Status(a); got != GenWritten {
		t.Fatalf("status after write = %v", got)
	}
	if err := st.Promote(a); err != nil {
		t.Fatal(err)
	}
	// Promoting the live generation again must not grow the journal.
	before, _ := os.Stat(filepath.Join(dir, ManifestName))
	if err := st.Promote(a); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(filepath.Join(dir, ManifestName))
	if before.Size() != after.Size() {
		t.Fatal("idempotent promote grew the journal")
	}

	if err := loadGen(st, a); err != nil {
		t.Fatal(err)
	}

	// A fresh open (the restart path) recovers the same live generation.
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if live, ok := st2.Manifest().Promoted(); !ok || live != a {
		t.Fatalf("recovered promoted = %x/%v, want a", live[:4], ok)
	}
}

func TestStoreCorruptMarkBlocksLoadUntilRewrite(t *testing.T) {
	frozen, window := storeFixture(t)
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := dg(0xA2)
	if err := st.WriteShardsLineage(frozen, window, a, nil, 0, lineageOf(frozen[0])); err != nil {
		t.Fatal(err)
	}
	if err := st.MarkCorrupt(a); err != nil {
		t.Fatal(err)
	}
	if err := loadGen(st, a); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("load of corrupt generation = %v, want ErrCorrupt", err)
	}
	// A rewrite supersedes the mark — the cold-rebuild recovery cycle.
	if err := st.WriteShardsLineage(frozen, window, a, nil, 0, lineageOf(frozen[0])); err != nil {
		t.Fatal(err)
	}
	if err := loadGen(st, a); err != nil {
		t.Fatalf("load after rewrite: %v", err)
	}
}

func TestStoreAdoptsUnrecordedGeneration(t *testing.T) {
	frozen, window := storeFixture(t)
	dir := t.TempDir()
	a := dg(0xA3)
	// Simulate a crash between the shard manifest's durable rename and
	// the journal append: the generation directory is complete, the
	// journal never heard of it.
	gen := filepath.Join(dir, GenDirName(a))
	if err := WriteLineageFS(OS, filepath.Join(gen, ShardFileName(0)), frozen[0], window, a, nil, lineageOf(frozen[0])); err != nil {
		t.Fatal(err)
	}
	man := &ShardManifest{Digest: a, Window: window, Shards: []ShardInfo{{NumPrefixes: len(frozen[0].Prefixes)}}}
	if err := writeShardManifestFS(OS, gen, man); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Manifest().Status(a); got != GenWritten {
		t.Fatalf("adopted status = %v, want written", got)
	}
	if err := loadGen(st, a); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMarksMissingFilesRemoved(t *testing.T) {
	frozen, window := storeFixture(t)
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := dg(0xA4)
	if err := st.WriteShardsLineage(frozen, window, a, nil, 0, lineageOf(frozen[0])); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(st.GenDirPath(a)); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Manifest().Status(a); got != GenRemoved {
		t.Fatalf("status of vanished generation = %v, want removed", got)
	}
}

// TestStoreRemovesHeaderlessDebris: a generation directory whose shard
// manifest never landed, or does not parse, is the debris of a writer
// that died mid-write, and recovery removes it whole.
func TestStoreRemovesHeaderlessDebris(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, "gen-00000000000000fe")
	junk := filepath.Join(dir, "gen-00000000000000ff")
	for _, d := range []string{torn, junk} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(torn, ShardFileName(0)), []byte("half a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(junk, shardManifestName), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{torn, junk} {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Fatalf("debris %s survived recovery: %v", filepath.Base(d), err)
		}
	}
}

func TestStoreGCRetention(t *testing.T) {
	frozen, window := storeFixture(t)
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := dg(0xB1), dg(0xB2), dg(0xB3)
	for _, d := range [][32]byte{a, b, c} {
		if err := st.WriteShardsLineage(frozen, window, d, nil, 0, lineageOf(frozen[0])); err != nil {
			t.Fatal(err)
		}
		if err := st.Promote(d); err != nil {
			t.Fatal(err)
		}
	}
	// c live, b retired (retained), a evicted.
	if live, ok := st.Manifest().Promoted(); !ok || live != c {
		t.Fatalf("live = %x/%v, want c", live[:4], ok)
	}
	if got := st.Manifest().Status(a); got != GenRemoved {
		t.Fatalf("a status = %v, want removed", got)
	}
	if _, err := os.Stat(st.GenDirPath(a)); !os.IsNotExist(err) {
		t.Fatalf("a's directory survived GC: %v", err)
	}
	if got := st.Manifest().Status(b); got != GenRetired {
		t.Fatalf("b status = %v, want retired", got)
	}
	if _, err := os.Stat(st.GenDirPath(b)); err != nil {
		t.Fatalf("b's directory should be retained: %v", err)
	}

	// Corrupt generations are first in the eviction line.
	if err := st.MarkCorrupt(b); err != nil {
		t.Fatal(err)
	}
	d := dg(0xB4)
	if err := st.WriteShardsLineage(frozen, window, d, nil, 0, lineageOf(frozen[0])); err != nil {
		t.Fatal(err)
	}
	if err := st.Promote(d); err != nil {
		t.Fatal(err)
	}
	if got := st.Manifest().Status(b); got != GenRemoved {
		t.Fatalf("corrupt b should be evicted first, status = %v", got)
	}
}

// TestStoreGCEvictsUnpromotedOrphans: a generation written but never
// promoted — the process died before Promote — is collected like a
// retired one once a later generation is live, oldest first within the
// retention cap. One written after the live promotion may yet be
// promoted and stays.
func TestStoreGCEvictsUnpromotedOrphans(t *testing.T) {
	frozen, window := storeFixture(t)
	dir := t.TempDir()
	write := func(st *Store, d [32]byte) {
		t.Helper()
		if err := st.WriteShardsLineage(frozen, window, d, nil, 0, lineageOf(frozen[0])); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	orphan := dg(0xE0)
	write(st, orphan)
	// Crash before Promote: the next process replays the journal.
	if st, err = OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	var live [32]byte
	for i := 1; i <= 8; i++ {
		live = dg(0xE0 + byte(i))
		write(st, live)
		if err := st.Promote(live); err != nil {
			t.Fatal(err)
		}
	}
	pending := dg(0xEF)
	write(st, pending)
	if err := st.GC(); err != nil {
		t.Fatal(err)
	}
	if got := st.Status(orphan); got != GenRemoved {
		t.Errorf("orphan status = %v, want removed", got)
	}
	if _, err := os.Stat(st.GenDirPath(orphan)); !os.IsNotExist(err) {
		t.Errorf("orphan's directory survived GC: %v", err)
	}
	if got := st.Status(pending); got != GenWritten || !st.HasShards(pending) {
		t.Errorf("generation written after the live promotion: status %v, on disk %v; want written and kept",
			got, st.HasShards(pending))
	}
	gens, err := filepath.Glob(filepath.Join(dir, "gen-*"))
	if err != nil {
		t.Fatal(err)
	}
	// The live generation, the pending one, and DefaultRetain retired.
	if want := DefaultRetain + 2; len(gens) != want {
		t.Errorf("store holds %d generation directories, want %d", len(gens), want)
	}
}

func TestStoreSweepsTempsOnOpen(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, ".ribsnap-orphan")
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp survived store open: %v", err)
	}
}

// TestStoreGCMixedShardedAndLegacy pins retention across generations of
// different K at once — every generation is a directory, evicted
// recursively under the one retain cap, and served in the K it was
// written with — and pins that snapshot files from before generation
// directories (a bare index.ribsnap, a gen-<digest>.ribsnap) are not
// the store's: never adopted, never served, never touched by GC or
// recovery.
func TestStoreGCMixedShardedAndLegacy(t *testing.T) {
	ix, window := randomIndex(t, 99)
	monolith, err := ix.FrozenShards(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ix.FrozenShards(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	legacy := dg(0xC0)
	legacyFiles := []string{"index.ribsnap", "gen-" + strings.Repeat("c0", 8) + ".ribsnap"}
	for _, name := range legacyFiles {
		if err := WriteLineageFS(OS, filepath.Join(dir, name), monolith[0], window, legacy, nil, lineageOf(monolith[0])); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenStore(dir, StoreOptions{retain: 1})
	if err != nil {
		t.Fatal(err)
	}

	// a K=3, b K=1, c K=3; promoted in order, so after c the non-live
	// set {a, b} exceeds retain: 1 and a — the oldest — is evicted.
	a, b, c := dg(0xC1), dg(0xC2), dg(0xC3)
	for _, g := range []struct {
		d  [32]byte
		fs []*rib.Frozen
	}{{a, shards}, {b, monolith}, {c, shards}} {
		if err := st.WriteShardsLineage(g.fs, window, g.d, nil, 0, lineageOf(g.fs[0])); err != nil {
			t.Fatal(err)
		}
		if err := st.Promote(g.d); err != nil {
			t.Fatal(err)
		}
	}

	if got := st.Status(a); got != GenRemoved {
		t.Fatalf("a status = %v, want removed", got)
	}
	if _, err := os.Stat(st.GenDirPath(a)); !os.IsNotExist(err) {
		t.Fatalf("a's generation directory survived GC: %v", err)
	}
	if got := st.Status(b); got != GenRetired {
		t.Fatalf("b status = %v, want retired", got)
	}
	if err := loadGen(st, b); err != nil {
		t.Fatalf("retired K=1 generation b should be retained: %v", err)
	}
	set, err := st.LoadShards(c, 0)
	if err != nil {
		t.Fatalf("live generation c: %v", err)
	}
	if set.NumShards() != 3 {
		t.Fatalf("c served with %d shards, want the 3 it was written with", set.NumShards())
	}
	set.Close()

	// Restart: recovery re-adopts the survivors, keeps the removals, and
	// leaves the pre-directory snapshot files where they were, unread.
	st2, err := OpenStore(dir, StoreOptions{retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if live, ok := st2.Promoted(); !ok || live != c {
		t.Fatalf("recovered live = %x/%v, want c", live[:4], ok)
	}
	if got := st2.Status(a); got != GenRemoved {
		t.Fatalf("recovered a status = %v, want removed", got)
	}
	if got := st2.Status(legacy); got != GenUnknown {
		t.Fatalf("a pre-directory snapshot file was adopted as %v", got)
	}
	if err := loadGen(st2, legacy); !os.IsNotExist(err) {
		t.Fatalf("load of a digest only a pre-directory file holds = %v, want a miss", err)
	}
	for _, name := range legacyFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s was touched: %v", name, err)
		}
	}
}

// TestSweepTemps: the startup sweep removes exactly the orphaned write
// temps and reports them, leaving everything else alone.
func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".ribsnap-123", ".ribsnap-abc"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "index.ribsnap")
	if err := os.WriteFile(keep, []byte("snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	swept, err := sweepTempsFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 2 {
		t.Fatalf("swept %v, want the two orphans", swept)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "index.ribsnap" {
		t.Fatalf("sweep touched the wrong files: %v", entries)
	}
	// Missing directory is a clean no-op, not an error.
	if _, err := sweepTempsFS(OS, filepath.Join(dir, "nope")); err != nil {
		t.Fatalf("sweep of missing dir: %v", err)
	}
}
