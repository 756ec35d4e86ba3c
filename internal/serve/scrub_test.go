package serve

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropscope/internal/ribsnap"
)

// waitLong polls cond with a deadline wide enough to cover a cold
// archive rebuild under the race detector.
func waitLong(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrubFixture loads a file-backed (warm, mmap'd) monolith — a one-shard
// generation — through a manifest store: a first load cold-builds and
// persists the generation, a second one maps it.
func scrubFixture(t *testing.T) (*Server, *ribsnap.Store, [32]byte, string, LoadOptions) {
	t.Helper()
	dir, window := writeWorld(t, 1)
	store, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Window: window, Store: store}
	cold, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold.snap.Close()
	warm, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ss := warm.Shards(); ss == nil || ss.NumShards() != 1 {
		t.Fatal("second load is not a file-backed one-shard generation; nothing would scrub")
	}
	return New(warm), store, warm.snap.Digest, dir, opts
}

// TestScrubCleanPass: over an intact generation the scrubber completes
// passes, accumulates byte counters, and never degrades.
func TestScrubCleanPass(t *testing.T) {
	srv, _, _, _, _ := scrubFixture(t)
	sc := NewScrubber(srv, ScrubConfig{
		chunk:        1 << 20,
		interval:     time.Millisecond,
		passInterval: 2 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); sc.Run(ctx) }()

	stats := srv.Stats()
	waitFor(t, "a completed scrub pass", func() bool { return stats.ScrubPasses.Load() >= 2 })
	cancel()
	<-done
	if stats.CorruptTotal.Load() != 0 {
		t.Fatalf("clean generation scrubbed corrupt %d times", stats.CorruptTotal.Load())
	}
	if stats.Degraded.Load() {
		t.Fatal("clean scrub degraded the daemon")
	}
	if stats.ScrubBytes.Load() == 0 {
		t.Fatal("no bytes accounted")
	}
}

// TestScrubDetectsBitrotAndHeals is the acceptance soak: a byte of the
// live monolith's one shard file is flipped while query load runs. The
// scrubber must detect it, quarantine the shard, journal the generation
// corrupt, flip /healthz to degraded, and trigger a reload that
// cold-rebuilds and swaps a clean generation in — degraded then
// healthy, zero failed queries (the quarantined shard keeps answering
// from its pinned mapping), zero crashes.
func TestScrubDetectsBitrotAndHeals(t *testing.T) {
	srv, store, digest, dir, opts := scrubFixture(t)
	stats := srv.Stats()
	log := &eventLog{}

	r := NewReloader(srv, ReloadConfig{Dir: dir, Opts: opts, OnEvent: log.add})
	sc := NewScrubber(srv, ScrubConfig{
		chunk:        1 << 20,
		interval:     time.Millisecond,
		passInterval: 2 * time.Millisecond,
		Store:        store,
		Reloader:     r,
		OnEvent:      log.add,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.Run(ctx) }()
	go func() { defer wg.Done(); sc.Run(ctx) }()

	// Query load for the duration: every response must succeed and
	// answer what the intact generation answers — an observed prefix,
	// so a quarantine that silenced the shard would show.
	var queries, failures atomic.Uint64
	g := srv.Generation()
	var target string
	for _, p := range samples(g) {
		if g.Pipeline().Index.Observed(p, g.Window().Last) {
			target = "/v1/visibility?prefix=" + escapePrefix(p)
			break
		}
	}
	want := get(t, srv, target).Body.String()
	if !strings.Contains(want, `"observed":true`) {
		t.Fatalf("probe answers %s, want an observed prefix", want)
	}
	stopLoad := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
				queries.Add(1)
				if rec.Code != 200 || rec.Body.String() != want {
					failures.Add(1)
				}
			}
		}()
	}

	// Let the scrubber get going, then rot the live generation's file.
	waitFor(t, "scrub activity", func() bool { return stats.ScrubBytes.Load() > 0 })
	// Flip one payload byte in place (WriteAt, no truncation: the file
	// is mmap'd by the live generation, and shrinking it would be the
	// harness SIGBUSing the daemon rather than simulating bitrot).
	path := srv.Generation().Shards().ShardPath(0)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := info.Size() / 2
	var one [1]byte
	if _, err := fh.ReadAt(one[:], mid); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x10
	if _, err := fh.WriteAt(one[:], mid); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	// Detection: degraded, counted, journaled.
	waitLong(t, "corruption detection", func() bool { return stats.CorruptTotal.Load() >= 1 })
	waitLong(t, "degraded mode", func() bool { return stats.Degraded.Load() })
	if stats.ScrubError() == "" {
		t.Fatal("no scrub error recorded")
	}

	// Heal: the triggered reload refuses the corrupt generation, cold-
	// rebuilds, rewrites the snapshot, and swaps.
	waitLong(t, "heal", func() bool { return !stats.Degraded.Load() && srv.Swaps() >= 1 })
	if got := store.Status(digest); got != ribsnap.GenPromoted {
		t.Fatalf("post-heal manifest status = %v, want promoted (rewrite + promote)", got)
	}
	if stats.ScrubError() != "" {
		t.Fatalf("scrub error survived the heal: %q", stats.ScrubError())
	}

	// A while longer under load on the healed generation.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stopLoad)
	cancel()
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d queries failed or answered differently during the corruption/heal cycle",
			failures.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("load generator ran no queries")
	}
	if !log.contains("scrub: corruption on generation") {
		t.Fatalf("no corruption event: %v", log.msgs)
	}
	if !log.contains("swapped in generation") {
		t.Fatalf("no reload swap event: %v", log.msgs)
	}
}

// flipBit flips one bit in the middle of the file at path, which must
// not be empty.
func flipBit(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) == 0 {
		t.Fatalf("%s: %d bytes, %v", path, len(raw), err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// scrubFramed runs a scrubber over the fixture until a clean pass, has
// flip damage a framed store file, and returns once the scrubber counts
// the finding, with the scrubber stopped.
func scrubFramed(t *testing.T, srv *Server, store *ribsnap.Store, log *eventLog, flip func()) {
	t.Helper()
	stats := srv.Stats()
	sc := NewScrubber(srv, ScrubConfig{
		chunk:        1 << 20,
		interval:     time.Millisecond,
		passInterval: 2 * time.Millisecond,
		Store:        store,
		OnEvent:      log.add,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); sc.Run(ctx) }()
	waitFor(t, "a clean scrub pass", func() bool { return stats.ScrubPasses.Load() >= 1 })
	if n := stats.CorruptTotal.Load(); n != 0 {
		t.Fatalf("clean store scrubbed corrupt %d times", n)
	}
	flip()
	waitFor(t, "the finding", func() bool { return stats.CorruptTotal.Load() >= 1 })
	cancel()
	<-done
}

// TestScrubReportsStoreFileRot: a bit flipped in the store root's
// text.journal under a running scrubber is reported — counted, named
// in scrub_error and in an event — but degrades nothing: the served
// generation does not depend on the file, so it stays promoted, is not
// journaled corrupt, and /healthz is not degraded.
func TestScrubReportsStoreFileRot(t *testing.T) {
	srv, store, digest, _, _ := scrubFixture(t)
	log := &eventLog{}
	path := filepath.Join(store.Dir(), "text.journal")
	if got := store.Status(digest); got != ribsnap.GenPromoted {
		t.Fatalf("fixture generation is %v, want promoted", got)
	}
	scrubFramed(t, srv, store, log, func() { flipBit(t, path) })

	stats := srv.Stats()
	if msg := stats.ScrubError(); !strings.Contains(msg, "text.journal") {
		t.Fatalf("scrub_error %q does not name text.journal", msg)
	}
	if !log.contains("scrub: corruption in store file " + path) {
		t.Fatalf("no event names the file: %v", log.msgs)
	}
	if got := store.Status(digest); got != ribsnap.GenPromoted {
		t.Fatalf("after a store-file finding the generation is %v, want promoted", got)
	}
	if stats.Degraded.Load() {
		t.Fatal("a store-file finding degraded the daemon")
	}
	body := get(t, srv, "/healthz").Body.String()
	if !strings.Contains(body, `"degraded":false`) || !strings.Contains(body, "text.journal") {
		t.Fatalf("/healthz = %s, want not degraded and the finding in scrub_error", body)
	}
	if srv.Generation().Shards().IsBad(0) {
		t.Fatal("a store-file finding quarantined a shard")
	}
}

// TestScrubReportsShardManifestRot: a bit flipped in the live
// generation's shards.manifest is a finding against the generation —
// journaled corrupt, degraded — that quarantines no shard.
func TestScrubReportsShardManifestRot(t *testing.T) {
	srv, store, digest, _, _ := scrubFixture(t)
	log := &eventLog{}
	scrubFramed(t, srv, store, log, func() { flipBit(t, srv.Generation().Shards().ManifestPath()) })

	stats := srv.Stats()
	if msg := stats.ScrubError(); !strings.Contains(msg, "shards.manifest") {
		t.Fatalf("scrub_error %q does not name shards.manifest", msg)
	}
	if got := store.Status(digest); got != ribsnap.GenCorrupt {
		t.Fatalf("after a shards.manifest finding the generation is %v, want corrupt", got)
	}
	if !stats.Degraded.Load() {
		t.Fatal("a shards.manifest finding did not degrade the daemon")
	}
	if srv.Generation().Shards().IsBad(0) {
		t.Fatal("a shards.manifest finding quarantined a shard")
	}
}

// TestScrubSkipsColdGeneration: a generation built in memory has no
// backing files; the scrubber must idle, not error.
func TestScrubSkipsColdGeneration(t *testing.T) {
	dir, window := writeWorld(t, 1)
	g, err := Load(dir, LoadOptions{Window: window}) // no store, no snapshot: cold
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g)
	sc := NewScrubber(srv, ScrubConfig{interval: time.Millisecond, passInterval: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = sc.Run(ctx)
	if srv.Stats().CorruptTotal.Load() != 0 || srv.Stats().Degraded.Load() {
		t.Fatal("cold generation scrubbing must be a no-op")
	}
}
