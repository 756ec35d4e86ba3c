package ribsnap

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// shardFixture freezes a randomized index into K shards and writes
// them through a Store, returning the store, the source index, and the
// window. The caller owns loading.
func shardFixture(t testing.TB, k int, digest [32]byte) (*Store, *rib.Index, timex.Range) {
	t.Helper()
	ix, window := randomIndex(t, 41)
	shards, err := ix.FrozenShards(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := []CollectorCount{{Collector: "rv0", Records: 11}, {Collector: "rv1", Records: 5}}
	if err := st.WriteShardsLineage(shards, window, digest, counts, 0, lineageOf(shards[0])); err != nil {
		t.Fatal(err)
	}
	return st, ix, window
}

func TestShardManifestRoundTrip(t *testing.T) {
	m := &ShardManifest{
		Digest: dg(0x5A),
		Window: timex.Range{First: day0, Last: day0 + 60},
		Shards: []ShardInfo{
			{Bound: netx.MustParsePrefix("10.0.0.0/16"), NumPrefixes: 120},
			{Bound: netx.MustParsePrefix("10.9.0.0/24"), NumPrefixes: 77},
			{Bound: netx.MustParsePrefix("198.51.100.0/24"), NumPrefixes: 3},
		},
	}
	dir := t.TempDir()
	if err := writeShardManifestFS(OS, dir, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, shardManifestName)
	got, err := ReadShardManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte, wantErr error) {
		t.Helper()
		b := mutate(append([]byte(nil), raw...))
		p := filepath.Join(t.TempDir(), shardManifestName)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadShardManifest(p); !errors.Is(err, wantErr) {
			t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
		}
	}
	corrupt("flipped body byte", func(b []byte) []byte { b[20] ^= 0xFF; return b }, ErrCorrupt)
	corrupt("truncated", func(b []byte) []byte { return encodeTail(b[:len(b)-16]) }, ErrCorrupt)
	corrupt("short", func(b []byte) []byte { return b[:10] }, ErrTruncated)
	corrupt("bad magic", func(b []byte) []byte {
		b[0] = 'X'
		return b
	}, ErrCorrupt)
	// Version and bound-bits corruption must re-seal the CRC so the
	// field check itself fires.
	reseal := func(b []byte) []byte {
		body := b[:len(b)-4]
		return encodeTail(body)
	}
	corrupt("future version", func(b []byte) []byte {
		b[8] = 99
		return reseal(b)
	}, ErrVersion)
	corrupt("bound bits > 32", func(b []byte) []byte {
		b[56+4] = 200
		return reseal(b)
	}, ErrCorrupt)
}

// encodeTail re-appends a valid CRC over body.
func encodeTail(body []byte) []byte {
	sum := crc32.Checksum(body, castagnoli)
	return append(append([]byte(nil), body...),
		byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func TestWriteLoadShards(t *testing.T) {
	d := dg(0xC4)
	st, ix, window := shardFixture(t, 4, d)
	if !st.HasShards(d) {
		t.Fatal("HasShards = false after WriteShardsLineage")
	}
	if st.HasShards(dg(0xEE)) {
		t.Fatal("HasShards = true for unknown digest")
	}
	ss, err := st.LoadShards(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", ss.NumShards())
	}
	if ss.Window() != window {
		t.Fatalf("Window = %v, want %v", ss.Window(), window)
	}
	if ss.Digest() != d {
		t.Fatal("digest mismatch")
	}
	if len(ss.Counts()) != 2 || ss.Counts()[0].Collector != "rv0" {
		t.Fatalf("Counts = %+v", ss.Counts())
	}
	if !reflect.DeepEqual(ss.Peers(), ix.Peers()) {
		t.Fatal("Peers diverge from source index")
	}

	sh, err := ss.Sharded(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ix.Prefixes() {
		for _, day := range probeDays() {
			if a, b := ix.VisibleCount(p, day), sh.VisibleCount(p, day); a != b {
				t.Fatalf("VisibleCount(%v,%v) = %d via shards, want %d", p, day, b, a)
			}
			ao, aok := ix.OriginAt(p, day)
			bo, bok := sh.OriginAt(p, day)
			if ao != bo || aok != bok {
				t.Fatalf("OriginAt(%v,%v) diverges", p, day)
			}
		}
	}

	// The master snapshot carries identity but no mapping; closing it
	// tears the set down exactly once.
	master := ss.Master()
	if master.Digest != d || master.Window != window || master.Index != nil {
		t.Fatalf("master = %+v", master)
	}
}

func TestLoadShardsRefusesCorrupt(t *testing.T) {
	d := dg(0xC5)
	st, _, _ := shardFixture(t, 2, d)
	if err := st.MarkCorrupt(d); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadShards(d, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadShards after MarkCorrupt: %v, want ErrCorrupt", err)
	}
}

func TestOpenShardSetStaleDigest(t *testing.T) {
	d := dg(0xC6)
	st, _, _ := shardFixture(t, 2, d)
	if _, err := OpenShardSet(st.GenDirPath(d), dg(0xC7), 0); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-digest open: %v, want ErrStale", err)
	}
}

func TestShardSetResidencyBudget(t *testing.T) {
	d := dg(0xC8)
	st, ix, _ := shardFixture(t, 4, d)
	ss, err := st.LoadShards(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	// Touch every shard several times; the budget must hold throughout
	// and the counters must show real faults and evictions.
	for round := 0; round < 3; round++ {
		for i := 0; i < ss.NumShards(); i++ {
			rix, rel, err := ss.AcquireIndex(i)
			if err != nil {
				t.Fatalf("round %d shard %d: %v", round, i, err)
			}
			if rix.NumPrefixes() == 0 {
				t.Fatalf("shard %d empty", i)
			}
			rel.Release()
			if r := ss.Resident(); r > 2 {
				t.Fatalf("resident = %d, budget 2", r)
			}
		}
	}
	if f := ss.Faults(); f < 4 {
		t.Fatalf("faults = %d, want >= 4", f)
	}
	if e := ss.Evictions(); e < 2 {
		t.Fatalf("evictions = %d, want >= 2", e)
	}
	res := ss.ResidentShards()
	n := 0
	for _, r := range res {
		if r {
			n++
		}
	}
	if n != ss.Resident() {
		t.Fatalf("ResidentShards counts %d, Resident() = %d", n, ss.Resident())
	}

	// Queries through the sharded view still answer correctly while
	// shards fault in and out under the budget.
	sh, err := ss.Sharded(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ix.Prefixes() {
		if a, b := ix.Observed(p, day0+10), sh.Observed(p, day0+10); a != b {
			t.Fatalf("Observed(%v) = %v via budgeted shards, want %v", p, b, a)
		}
	}
}

func TestShardSetMarkBad(t *testing.T) {
	d := dg(0xC9)
	st, _, _ := shardFixture(t, 3, d)
	ss, err := st.LoadShards(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ss.MarkBad(1)
	if !ss.IsBad(1) || ss.IsBad(0) {
		t.Fatalf("IsBad: %v", ss.BadShards())
	}
	if _, _, err := ss.AcquireIndex(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("acquire of bad shard: %v, want ErrCorrupt", err)
	}
	// The other shards keep serving.
	if _, rel, err := ss.AcquireIndex(2); err != nil {
		t.Fatal(err)
	} else {
		rel.Release()
	}
}

// TestShardFaultInFlight pins the fault-in protocol by standing in for
// a fault of shard 1 that is still mapping its file: a resident
// neighbour is acquired without waiting for it, a second acquirer of
// shard 1 waits instead of mapping the file again, and the fault's
// outcome — a mapped shard, or its error — is what the waiter gets.
func TestShardFaultInFlight(t *testing.T) {
	d := dg(0xCC)
	st, _, _ := shardFixture(t, 3, d)
	ss, err := st.LoadShards(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	begin := func() *shardLoad {
		ld := &shardLoad{done: make(chan struct{})}
		ss.mu.Lock()
		ss.loading[1] = ld
		ss.mu.Unlock()
		return ld
	}
	finish := func(ld *shardLoad, err error) {
		ss.mu.Lock()
		ss.loading[1] = nil
		ss.mu.Unlock()
		ld.err = err
		close(ld.done)
	}
	waiter := func() chan error {
		got := make(chan error, 1)
		go func() {
			_, rel, err := ss.AcquireIndex(1)
			if err == nil {
				rel.Release()
			}
			got <- err
		}()
		select {
		case err := <-got:
			t.Fatalf("acquire of a shard being faulted in returned early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		return got
	}

	ld := begin()
	if _, rel, err := ss.AcquireIndex(0); err != nil { // shard 0 is resident from open
		t.Fatal(err)
	} else {
		rel.Release()
	}
	got := waiter()
	faults := ss.Faults()
	finish(ld, nil) // the stand-in mapped nothing, so the waiter faults the shard in itself
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if f := ss.Faults(); f != faults+1 {
		t.Fatalf("faults went %d -> %d, want one fault-in", faults, f)
	}

	ss.mu.Lock() // evict shard 1: the next acquire is a re-fault
	ss.resident[1] = false
	ss.mu.Unlock()
	ld = begin()
	got = waiter()
	finish(ld, ErrCorrupt)
	if err := <-got; !errors.Is(err, ErrCorrupt) {
		t.Fatalf("waiter got %v, want the fault's ErrCorrupt", err)
	}
}

// flipShardByte flips one payload byte in the middle of a shard file
// in place (WriteAt, no truncation), the way bitrot lands under a live
// mapping, and returns a func that writes the original byte back.
func flipShardByte(t *testing.T, path string) (restore func()) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size() / 2
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	orig := b[0]
	if _, err := f.WriteAt([]byte{orig ^ 0x40}, off); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{orig}, off); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardRefaultReverifies pins what a re-fault of an evicted shard
// proves: its decoded index is kept, but the mapped bytes are checked
// again, so rot that lands on an evicted shard's file fails the next
// acquire with ErrCorrupt, and a clean re-fault answers exactly as the
// unsharded index.
func TestShardRefaultReverifies(t *testing.T) {
	d := dg(0xCD)
	st, ix, _ := shardFixture(t, 3, d)
	ss, err := st.LoadShards(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.slots[0].mapped == nil {
		t.Skip("read-whole snapshots own their bytes: nothing to reverify")
	}
	for i := 0; i < ss.NumShards(); i++ {
		_, rel, err := ss.AcquireIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		rel.Release()
	}
	if got := ss.ResidentShards(); !reflect.DeepEqual(got, []bool{false, false, true}) {
		t.Fatalf("resident after touching every shard under budget 1: %v", got)
	}

	flipShardByte(t, ss.ShardPath(0))
	if _, _, err := ss.AcquireIndex(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("re-fault of a rotted evicted shard: %v, want ErrCorrupt", err)
	}

	faults := ss.Faults()
	six, rel, err := ss.AcquireIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Release()
	if f := ss.Faults(); f != faults+1 {
		t.Fatalf("faults went %d -> %d, want one re-fault", faults, f)
	}
	if six.NumPrefixes() == 0 {
		t.Fatal("shard 1 is empty")
	}
	for _, p := range six.Prefixes() {
		for _, day := range probeDays() {
			if a, b := ix.VisibleCount(p, day), six.VisibleCount(p, day); a != b {
				t.Fatalf("VisibleCount(%v,%v) = %d after re-fault, want %d", p, day, b, a)
			}
			ao, aok := ix.OriginAt(p, day)
			bo, bok := six.OriginAt(p, day)
			if ao != bo || aok != bok {
				t.Fatalf("OriginAt(%v,%v) = %v,%v after re-fault, want %v,%v", p, day, bo, bok, ao, aok)
			}
		}
	}
}

// TestShardFaultCorruptQuarantines: a fault-in that finds its shard
// corrupt quarantines it on the spot. The next acquire fails fast —
// even with the file repaired, nothing reloads it and no fault is
// counted — and BadShards reports the shard, as after a scrub finding.
func TestShardFaultCorruptQuarantines(t *testing.T) {
	d := dg(0xCE)
	st, _, _ := shardFixture(t, 3, d)
	ss, err := st.LoadShards(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	restore := flipShardByte(t, ss.ShardPath(1))
	if _, _, err := ss.AcquireIndex(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("first fault of a corrupt shard: %v, want ErrCorrupt", err)
	}
	restore() // only the quarantine can refuse the shard now
	faults := ss.Faults()
	if _, _, err := ss.AcquireIndex(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second acquire of a quarantined shard: %v, want ErrCorrupt", err)
	}
	if f := ss.Faults(); f != faults {
		t.Fatalf("faults went %d -> %d: the quarantined shard was faulted again", faults, f)
	}
	if got := ss.BadShards(); !reflect.DeepEqual(got, []bool{false, true, false}) {
		t.Fatalf("BadShards = %v, want shard 1 only", got)
	}
	if _, rel, err := ss.AcquireIndex(2); err != nil {
		t.Fatal(err)
	} else {
		rel.Release()
	}
}

// TestShardRefaultQuarantineRace quarantines a shard while goroutines
// keep evicting and re-faulting every shard under budget 1: a fault
// holds its own reference on the mapping it checks, so MarkBad (and the
// final Close) cannot unmap it underneath. Every acquire succeeds,
// except those of the quarantined shard, which fail with ErrCorrupt.
func TestShardRefaultQuarantineRace(t *testing.T) {
	d := dg(0xD0)
	st, _, _ := shardFixture(t, 3, d)
	ss, err := st.LoadShards(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	iters := 300
	if raceEnabled {
		iters = 100
	}
	var wg sync.WaitGroup
	var marked sync.Once
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if g == 0 && it == iters/3 {
					marked.Do(func() { ss.MarkBad(1) })
				}
				i := (g + it) % ss.NumShards()
				ix, rel, err := ss.AcquireIndex(i)
				if err != nil {
					if i != 1 || !errors.Is(err, ErrCorrupt) {
						t.Errorf("goroutine %d: shard %d: %v", g, i, err)
						return
					}
					continue
				}
				ix.VisibleCount(ix.Prefixes()[0], day0+10) // reads the mapped columns
				rel.Release()
			}
		}(g)
	}
	wg.Wait()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.AcquireIndex(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after Close: %v, want ErrClosed", err)
	}
}

// TestShardRefaultAllocs pins the cost of a re-fault: once every shard
// has been decoded, an evict → re-fault cycle allocates only the
// single-flight bookkeeping, never a second decode of the shard.
func TestShardRefaultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	d := dg(0xCF)
	st, _, _ := shardFixture(t, 3, d)
	ss, err := st.LoadShards(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	touch := func(i int) {
		_, rel, err := ss.AcquireIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		rel.Release()
	}
	for i := 0; i < ss.NumShards(); i++ {
		touch(i)
	}
	const runs = 60
	faults, i := ss.Faults(), 0
	avg := testing.AllocsPerRun(runs, func() {
		touch(i % ss.NumShards())
		i++
	})
	if got := ss.Faults() - faults; got != runs+1 {
		t.Fatalf("%d acquires under budget 1 faulted %d times; every one should re-fault", runs+1, got)
	}
	if avg > 4 {
		t.Errorf("evict → re-fault allocates %.1f objects; want <= 4", avg)
	}
}

// TestShardEvictionSoak hammers queries across every shard from many
// goroutines while the residency budget forces constant LRU eviction
// of the neighbors: every query must succeed and answer exactly as the
// unsharded index does. Run under -race this is the eviction soak the
// sharding design is gated on.
func TestShardEvictionSoak(t *testing.T) {
	const k = 6
	d := dg(0xCA)
	st, ix, _ := shardFixture(t, k, d)
	ss, err := st.LoadShards(d, (k+1)/2)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	sh, err := ss.Sharded(k)
	if err != nil {
		t.Fatal(err)
	}

	prefixes := ix.Prefixes()
	days := probeDays()
	iters := 400
	if raceEnabled {
		iters = 120
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p := prefixes[(g*131+it*17)%len(prefixes)]
				day := days[(g+it)%len(days)]
				if a, b := ix.VisibleCount(p, day), sh.VisibleCount(p, day); a != b {
					select {
					case errc <- fmt.Errorf("goroutine %d: VisibleCount(%v,%v) = %d, want %d", g, p, day, b, a):
					default:
					}
					return
				}
				if it%7 == 0 {
					// Aggregate fan-out touches every shard at once,
					// maximizing pressure on the eviction clock.
					if a, b := ix.RoutedSpace(day, 1).Len(), sh.RoutedSpace(day, 1).Len(); a != b {
						select {
						case errc <- fmt.Errorf("goroutine %d: RoutedSpace(%v) = %d, want %d", g, day, b, a):
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if r := ss.Resident(); r > (k+1)/2 {
		t.Fatalf("resident = %d after soak, budget %d", r, (k+1)/2)
	}
	t.Logf("soak: faults=%d evictions=%d", ss.Faults(), ss.Evictions())
}

// TestShardSetAcquireAllocs pins the resident fast path: acquiring a
// mapped shard is one lock and one refcount bump, nothing on the heap
// — the property that keeps sharded point queries at 0 allocs/op.
func TestShardSetAcquireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	d := dg(0xCB)
	st, ix, _ := shardFixture(t, 3, d)
	ss, err := st.LoadShards(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	sh, err := ss.Sharded(0)
	if err != nil {
		t.Fatal(err)
	}
	// Fault everything in once; the measurement is the resident path.
	for i := 0; i < ss.NumShards(); i++ {
		if _, rel, err := ss.AcquireIndex(i); err != nil {
			t.Fatal(err)
		} else {
			rel.Release()
		}
	}
	p := ix.Prefixes()[0]
	if avg := testing.AllocsPerRun(500, func() {
		sh.Observed(p, day0+5)
	}); avg != 0 {
		t.Errorf("resident shard point query allocates %.2f objects/op; want 0", avg)
	}
}
