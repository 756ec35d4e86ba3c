package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

// shardedFixture loads the seed-1 world twice through one store with
// -shards semantics: the first load cold-builds and persists the
// sharded generation, the second maps it warm. Both are returned along
// with the store and options.
func shardedFixture(t *testing.T, k, memBudget int) (*Generation, *ribsnap.Store, string, LoadOptions) {
	t.Helper()
	dir, window := writeWorld(t, 1)
	store, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Window: window, Store: store, Shards: k, MemBudget: memBudget}
	cold, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Shards() == nil {
		t.Fatal("cold sharded load did not produce a shard set")
	}
	cold.snap.Close()
	warm, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Shards() == nil {
		t.Fatal("warm load did not adopt the persisted sharded generation")
	}
	if got := warm.Shards().NumShards(); got != k {
		t.Fatalf("warm shard count = %d, want %d", got, k)
	}
	return warm, store, dir, opts
}

// queryPaths is the endpoint mix the byte-identity checks replay: for
// each sample prefix, visibility, ROV, DROP membership, and the origin
// timeline, across several days.
func queryPaths(g *Generation) []string {
	var paths []string
	days := []timex.Day{g.window.First, g.window.First + timex.Day(g.window.Days()/2), g.window.Last}
	ps := samples(g)
	step := len(ps)/24 + 1
	for i := 0; i < len(ps); i += step {
		p := escapePrefix(ps[i])
		for _, d := range days {
			paths = append(paths,
				"/v1/visibility?prefix="+p+"&day="+d.String(),
				"/v1/rov?prefix="+p+"&day="+d.String(),
				"/v1/drop?prefix="+p+"&day="+d.String(),
			)
		}
		paths = append(paths, "/v1/origins?prefix="+p)
	}
	paths = append(paths,
		"/v1/figures/"+g.window.First.String(),
		"/v1/figures/"+(g.window.First+timex.Day(g.window.Days()/2)).String(),
	)
	return paths
}

// TestShardedServeByteIdentity is the serving half of the sharding
// contract: a generation served through a 7-way sharded, memory-capped
// shard set answers every endpoint byte-for-byte identically to the
// unsharded cold build of the same archive — cold (just persisted) and
// warm (mapped back from the store).
func TestShardedServeByteIdentity(t *testing.T) {
	ref := New(loadGen(t))
	warm, _, _, _ := shardedFixture(t, 7, 4)
	sharded := New(warm)

	for _, path := range queryPaths(warm) {
		a := get(t, ref, path)
		b := get(t, sharded, path)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("%s diverges: unsharded %d %q, sharded %d %q",
				path, a.Code, a.Body.String(), b.Code, b.Body.String())
		}
	}
}

// TestShardedMetricsAndHealth checks the observability surface: the
// metrics schema is stable (shard fields always present, zero for a
// generation built in memory) and /healthz carries per-shard residency
// and degradation only for a generation served from the store.
func TestShardedMetricsAndHealth(t *testing.T) {
	ref := New(loadGen(t))
	warm, _, _, _ := shardedFixture(t, 7, 4)
	sharded := New(warm)

	m := get(t, ref, "/metrics").Body.String()
	for _, want := range []string{`"shards":0`, `"resident_shards":0`, `"shard_faults_total":0`, `"shard_evictions_total":0`} {
		if !strings.Contains(m, want) {
			t.Fatalf("in-memory /metrics missing %s:\n%s", want, m)
		}
	}
	m = get(t, sharded, "/metrics").Body.String()
	if !strings.Contains(m, `"shards":7`) {
		t.Fatalf("sharded /metrics missing shards=7:\n%s", m)
	}
	for _, want := range []string{`"resident_shards":`, `"shard_faults_total":`, `"shard_evictions_total":`} {
		if !strings.Contains(m, want) {
			t.Fatalf("sharded /metrics missing %s:\n%s", want, m)
		}
	}

	h := get(t, ref, "/healthz").Body.String()
	if strings.Contains(h, "shard_resident") {
		t.Fatalf("in-memory /healthz leaks shard fields:\n%s", h)
	}
	h = get(t, sharded, "/healthz").Body.String()
	for _, want := range []string{`"shards":7`, `"shard_resident":[`, `"shard_degraded":[`} {
		if !strings.Contains(h, want) {
			t.Fatalf("sharded /healthz missing %s:\n%s", want, h)
		}
	}
	if !strings.Contains(h, `"shard_degraded":[false,false,false,false,false,false,false]`) {
		t.Fatalf("healthy shard set reports degradation:\n%s", h)
	}
}

// TestShardScrubDegradesOneRange corrupts one shard file on disk and
// lets the scrubber find it: only that shard is quarantined — /healthz
// flags exactly one degraded shard, queries on the other ranges keep
// answering — and the pass still completes over the remaining shards.
func TestShardScrubDegradesOneRange(t *testing.T) {
	warm, store, _, _ := shardedFixture(t, 4, 0)
	srv := New(warm)
	prefixes := fmt.Sprintf(`"prefixes":%d,`, len(samples(warm)))

	// Flip a payload byte in shard 2's file. The mapped copy is
	// untouched; the scrubber reads the disk bytes.
	path := warm.Shards().ShardPath(2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	sc := NewScrubber(srv, ScrubConfig{
		chunk:        1 << 16,
		interval:     time.Millisecond,
		passInterval: 2 * time.Millisecond,
		Store:        store,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); sc.Run(ctx) }()

	stats := srv.Stats()
	waitFor(t, "scrub to find the damaged shard", func() bool { return stats.CorruptTotal.Load() >= 1 })
	waitFor(t, "the pass to finish the healthy shards", func() bool { return stats.ScrubPasses.Load() >= 1 })
	cancel()
	<-done

	ss := warm.Shards()
	for i := 0; i < ss.NumShards(); i++ {
		if got, want := ss.IsBad(i), i == 2; got != want {
			t.Fatalf("shard %d bad = %v, want %v (%v)", i, got, want, ss.BadShards())
		}
	}
	h := get(t, srv, "/healthz").Body.String()
	if !strings.Contains(h, `"shard_degraded":[false,false,true,false]`) {
		t.Fatalf("/healthz does not isolate the degraded shard:\n%s", h)
	}
	if !strings.Contains(h, prefixes) {
		t.Fatalf("/healthz prefix count moved with a shard quarantined, want %s:\n%s", prefixes, h)
	}
	if st := store.Status(warm.snap.Digest); st != ribsnap.GenCorrupt {
		t.Fatalf("generation status = %v, want corrupt", st)
	}

	// Ranges owned by healthy shards keep serving. Sample prefixes
	// whose owning shard is not 2 via the sharded router.
	sh, err := ss.Sharded(2)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, p := range samples(warm) {
		if owner := sh.ShardFor(p); owner == 2 {
			continue
		}
		w := get(t, srv, "/v1/visibility?prefix="+escapePrefix(p)+"&day="+warm.window.First.String())
		if w.Code != 200 {
			t.Fatalf("healthy-range query failed %d: %s", w.Code, w.Body.String())
		}
		served++
	}
	if served == 0 {
		t.Fatal("no sample prefix fell outside the damaged shard")
	}
}

// TestShardFaultQuarantineIsScrubbed: a shard whose fault-in finds its
// file corrupt is quarantined on the spot — /healthz flags it before
// any scrub pass — and the next scrub pass still reports it, so the
// generation is journaled corrupt and the damage heals like a scrub
// finding instead of staying quarantined for the generation's life.
func TestShardFaultQuarantineIsScrubbed(t *testing.T) {
	warm, store, _, _ := shardedFixture(t, 4, 1)
	srv := New(warm)
	ss := warm.Shards()
	sh, err := ss.Sharded(2)
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, p := range samples(warm) {
		if sh.ShardFor(p) == 2 {
			target = "/v1/visibility?prefix=" + escapePrefix(p)
			break
		}
	}
	if target == "" {
		t.Fatal("no sample prefix falls in shard 2")
	}

	// Flip a payload byte of shard 2, not yet faulted in, in place.
	f, err := os.OpenFile(ss.ShardPath(2), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0x40}, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	get(t, srv, target)
	if h := get(t, srv, "/healthz").Body.String(); !strings.Contains(h, `"shard_degraded":[false,false,true,false]`) {
		t.Fatalf("fault-in did not quarantine the corrupt shard:\n%s", h)
	}

	sc := NewScrubber(srv, ScrubConfig{
		chunk:        1 << 16,
		interval:     time.Millisecond,
		passInterval: 2 * time.Millisecond,
		Store:        store,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); sc.Run(ctx) }()
	stats := srv.Stats()
	waitFor(t, "scrub to report the quarantined shard", func() bool { return stats.CorruptTotal.Load() >= 1 })
	cancel()
	<-done
	if st := store.Status(warm.snap.Digest); st != ribsnap.GenCorrupt {
		t.Fatalf("generation status = %v, want corrupt", st)
	}
}
