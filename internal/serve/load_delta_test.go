package serve

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dropscope/internal/archive"
	"dropscope/internal/loader"
	"dropscope/internal/ribsnap"
	"dropscope/internal/scenario"
	"dropscope/internal/session"
	"dropscope/internal/timex"
)

// growableWorld generates a private (uncached) world and writes its
// archives, returning the world so the test can amplify and rewrite it
// — the byte-prefix append-only growth the delta path requires.
func growableWorld(t testing.TB, seed int64) (*scenario.World, string, timex.Range) {
	t.Helper()
	p := scenario.DefaultParams()
	p.Seed = seed
	p.Scale = 1024
	w, err := scenario.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeBundle(t, dir, w)
	return w, dir, p.Window
}

func writeBundle(t testing.TB, dir string, w *scenario.World) {
	t.Helper()
	err := archive.Write(dir, &archive.Bundle{
		MRT: w.MRT, DROP: w.DROP, SBL: w.SBL,
		IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// grow appends amplified churn to the world's MRT streams and rewrites
// the archives. The encoder is deterministic, so every file's previous
// content is a byte prefix of the new one — exactly an append.
func grow(t testing.TB, dir string, w *scenario.World, scale int, seed int64) {
	t.Helper()
	records, _ := scenario.AmplifyVolume(w, scale, seed)
	if records == 0 {
		t.Fatal("AmplifyVolume appended nothing")
	}
	writeBundle(t, dir, w)
}

// requireSameResponses asserts both servers answer the endpoint mix
// byte-for-byte identically.
func requireSameResponses(t *testing.T, want, got *Server, g *Generation) {
	t.Helper()
	for _, path := range queryPaths(g) {
		a := get(t, want, path)
		b := get(t, got, path)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("%s diverges:\ncold:  %d %q\ndelta: %d %q",
				path, a.Code, a.Body.String(), b.Code, b.Body.String())
		}
	}
}

// TestDeltaLoadStoreMatchesCold is the end-to-end append contract for
// the store-backed unsharded daemon path: cold load, archive grows
// append-only, and the next load takes the delta path — decoding only
// the appended bytes — yet serves every endpoint byte-identically to a
// from-scratch cold rebuild of the grown archive. The journal must show
// the delta generation live and the one it extended retired.
func TestDeltaLoadStoreMatchesCold(t *testing.T) {
	w, dir, window := growableWorld(t, 31)
	store, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Window: window, Store: store, Delta: true}
	g1, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if g1.DeltaBuilt() {
		t.Fatal("first (cold) load claims delta")
	}
	parentHex := g1.DigestHex()
	g1.snap.Close()

	grow(t, dir, w, 8, 97)

	g2, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.DeltaBuilt() {
		t.Fatal("load after append-only growth did not take the delta path")
	}
	cold, err := Load(dir, LoadOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if g2.DigestHex() != cold.DigestHex() {
		t.Fatalf("delta generation digest %s != cold %s", g2.DigestHex(), cold.DigestHex())
	}
	requireSameResponses(t, New(cold), New(g2), cold)

	// The delta generation's health must match a cache-off cold run:
	// no discarded-snapshot skip.
	if m := get(t, New(g2), "/metrics").Body.String(); strings.Contains(m, loader.SnapshotSource) {
		t.Fatalf("delta load counted a snapshot skip:\n%s", m)
	}

	raw, err := hex.DecodeString(g2.DigestHex())
	if err != nil || len(raw) != 32 {
		t.Fatalf("bad digest hex %q: %v", g2.DigestHex(), err)
	}
	var d2 [32]byte
	copy(d2[:], raw)
	if live, ok := store.Promoted(); !ok || live != d2 {
		t.Fatalf("promoted generation %x (%v), want the delta generation %x", live[:8], ok, d2[:8])
	}
	raw, err = hex.DecodeString(parentHex)
	if err != nil {
		t.Fatal(err)
	}
	var d1 [32]byte
	copy(d1[:], raw)
	if got := store.Status(d1); got != ribsnap.GenRetired {
		t.Fatalf("extended generation is %v in the journal, want retired", got)
	}
}

// TestDeltaLoadShardedMatchesCold runs the same contract over a K=5
// generation: the merge concatenates the shards, and the merged
// generation is re-persisted sharded.
func TestDeltaLoadShardedMatchesCold(t *testing.T) {
	w, dir, window := growableWorld(t, 32)
	store, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Window: window, Store: store, Shards: 5, MemBudget: 2, Delta: true}
	g1, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Shards() == nil {
		t.Fatal("cold sharded load produced no shard set")
	}
	g1.snap.Close()

	grow(t, dir, w, 8, 98)

	g2, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.DeltaBuilt() {
		t.Fatal("sharded load after growth did not take the delta path")
	}
	if g2.Shards() == nil || g2.Shards().NumShards() != 5 {
		t.Fatal("delta generation is not served sharded")
	}
	cold, err := Load(dir, LoadOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResponses(t, New(cold), New(g2), cold)
}

// TestDeltaLoadBareSnapshotDir exercises the batch path: every load
// opens the snapshot directory afresh, as each CLI run does, so the
// stale generation is found as the delta base through the journal
// replayed from disk, not a long-lived store handle.
func TestDeltaLoadBareSnapshotDir(t *testing.T) {
	w, dir, window := growableWorld(t, 33)
	snapDir := t.TempDir()
	load := func() *Generation {
		t.Helper()
		store, err := ribsnap.OpenStore(snapDir, ribsnap.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Load(dir, LoadOptions{Window: window, Store: store, Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	load().snap.Close()

	grow(t, dir, w, 8, 99)

	g2 := load()
	if !g2.DeltaBuilt() {
		t.Fatal("bare snapshot-dir load did not take the delta path")
	}
	cold, err := Load(dir, LoadOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResponses(t, New(cold), New(g2), cold)
}

// TestDeltaLoadFallsBackOnRewrite pins the safety property: an archive
// whose consumed prefix was rewritten (not appended to) must refuse
// the delta and rebuild cold — correctness over speed.
func TestDeltaLoadFallsBackOnRewrite(t *testing.T) {
	w, dir, window := growableWorld(t, 34)
	store, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Window: window, Store: store, Delta: true}
	g1, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	g1.snap.Close()

	grow(t, dir, w, 8, 100)
	// Flip one byte inside the region the base already consumed.
	var mrtFile string
	ents, err := os.ReadDir(filepath.Join(dir, "mrt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".mrt") {
			mrtFile = filepath.Join(dir, "mrt", e.Name())
			break
		}
	}
	b, err := os.ReadFile(mrtFile)
	if err != nil {
		t.Fatal(err)
	}
	b[2] ^= 0x01 // timestamp byte: record stays decodable, bytes differ
	if err := os.WriteFile(mrtFile, b, 0o644); err != nil {
		t.Fatal(err)
	}

	g2, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if g2.DeltaBuilt() {
		t.Fatal("rewritten archive still took the delta path")
	}
}

// TestDeltaWatchReloadCountsMetric drives the daemon loop: a reloader
// watching the archive notices append-only growth, reloads through the
// delta path, swaps the merged generation in, and increments
// delta_reloads_total.
func TestDeltaWatchReloadCountsMetric(t *testing.T) {
	w, dir, window := growableWorld(t, 35)
	store, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Window: window, Store: store, Delta: true}
	g1, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g1)
	clock := session.NewFake(time.Unix(1_700_000_000, 0))
	r := NewReloader(srv, ReloadConfig{
		Dir:   dir,
		Opts:  opts,
		Watch: time.Minute,
		clock: clock,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	clock.BlockUntil(1)
	grow(t, dir, w, 8, 101)
	clock.Advance(time.Minute)
	waitFor(t, "delta reload swap", func() bool { return srv.Swaps() == 1 })
	if got := srv.stats.DeltaReloads.Load(); got != 1 {
		t.Fatalf("delta_reloads_total = %d, want 1", got)
	}
	if m := get(t, srv, "/metrics").Body.String(); !strings.Contains(m, `"delta_reloads_total":1`) {
		t.Fatalf("/metrics missing delta_reloads_total=1:\n%s", m)
	}
	cancel()
	<-done
}
