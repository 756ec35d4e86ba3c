package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// buildShardTestIndex closes an index with a few hundred prefixes
// spread over several /8s, multiple peers, churn across the window,
// and deliberate MOAS conflicts — enough structure that every query
// family has non-trivial answers on both sides of any shard cut.
func buildShardTestIndex(t testing.TB) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ix := NewIndex()
	recs := []mrt.Record{peerTable()}
	for i := 0; i < 300; i++ {
		addr := netx.Addr(10+i%5)<<24 | netx.Addr((i*2557)%65536)<<8
		bits := 24
		switch i % 7 {
		case 0:
			bits = 16
		case 3:
			bits = 20
		}
		p := netx.PrefixFrom(addr, bits)
		peer := i % 2
		origin := bgp.ASN(100 + i%11)
		up := day0 + timex.Day(rng.Intn(20))
		recs = append(recs, announce(up, peer, bgp.Sequence(bgp.ASN(64500+peer), origin), p))
		if i%3 == 0 {
			recs = append(recs, withdraw(up+timex.Day(1+rng.Intn(10)), peer, p))
		}
		if i%13 == 0 {
			// MOAS: the other peer originates the same prefix elsewhere.
			other := 1 - peer
			recs = append(recs, announce(up+1, other,
				bgp.Sequence(bgp.ASN(64500+other), origin+1000), p))
		}
	}
	sort.SliceStable(recs[1:], func(i, j int) bool {
		return recs[1+i].Timestamp().Before(recs[1+j].Timestamp())
	})
	if err := ix.Load("rv1", recs); err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 60)
	return ix
}

// shardProbes returns the prefixes that exercise every routing edge of
// the boundary table: for each internal cut, the boundary prefix
// itself, its neighbors one rank below and above, and ancestors that
// straddle the cut; plus absent prefixes and whole-space covers.
func shardProbes(ix *Index, sh *Sharded) []netx.Prefix {
	sorted := ix.Prefixes()
	var probes []netx.Prefix
	probes = append(probes, sorted...)
	for _, bound := range sh.bounds[1:] {
		i := sort.Search(len(sorted), func(j int) bool {
			return sorted[j].Compare(bound) >= 0
		})
		for _, j := range []int{i - 1, i, i + 1} {
			if j >= 0 && j < len(sorted) {
				probes = append(probes, sorted[j])
			}
		}
		// Ancestors of the boundary straddle the cut for the overlap
		// queries; a sibling /32 below it probes the "just outside"
		// routing edge.
		for b := 0; b <= bound.Bits(); b += 4 {
			probes = append(probes, netx.PrefixFrom(bound.Addr(), b))
		}
		if bound.Addr() > 0 {
			probes = append(probes, netx.PrefixFrom(bound.Addr()-1, 32))
		}
	}
	probes = append(probes,
		netx.PrefixFrom(0, 0),
		netx.MustParsePrefix("10.0.0.0/8"),
		netx.MustParsePrefix("11.0.0.0/8"),
		netx.MustParsePrefix("192.0.2.0/24"),       // absent
		netx.MustParsePrefix("255.255.255.255/32"), // above everything
	)
	return probes
}

// TestShardedByteIdentical is the boundary property suite: for K in
// {1, 2, 7}, every query on every probe prefix (each shard boundary,
// one rank below, one above, straddling ancestors, absent prefixes)
// must answer exactly as the unsharded index does, on every day class
// (before, inside, after the window).
func TestShardedByteIdentical(t *testing.T) {
	ix := buildShardTestIndex(t)
	days := []timex.Day{day0 - 1, day0, day0 + 3, day0 + 9, day0 + 19, day0 + 45, day0 + 61}
	for _, k := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			fs, err := ix.FrozenShards(k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(fs) != k {
				t.Fatalf("FrozenShards(%d) returned %d shards", k, len(fs))
			}
			sh, err := ShardedFromFrozen(fs, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sh.NumPrefixes(), ix.NumPrefixes(); got != want {
				t.Fatalf("NumPrefixes = %d, want %d", got, want)
			}
			if got, want := sh.NumPeers(), ix.NumPeers(); got != want {
				t.Fatalf("NumPeers = %d, want %d", got, want)
			}
			if !reflect.DeepEqual(sh.Prefixes(), ix.Prefixes()) {
				t.Fatal("Prefixes diverge")
			}
			probes := shardProbes(ix, sh)
			for _, p := range probes {
				for _, d := range days {
					comparePoint(t, ix, sh, p, d)
				}
				if a, b := ix.OriginTimeline(p), sh.OriginTimeline(p); !reflect.DeepEqual(a, b) {
					t.Fatalf("OriginTimeline(%v): %v vs %v", p, a, b)
				}
				af, aok := ix.FirstObserved(p)
				bf, bok := sh.FirstObserved(p)
				if af != bf || aok != bok {
					t.Fatalf("FirstObserved(%v): %v,%v vs %v,%v", p, af, aok, bf, bok)
				}
			}
			for _, d := range days {
				for _, minPeers := range []int{1, 2} {
					a := ix.RoutedSpace(d, minPeers).Prefixes()
					b := sh.RoutedSpace(d, minPeers).Prefixes()
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("RoutedSpace(%v,%d): %d vs %d prefixes", d, minPeers, len(a), len(b))
					}
				}
				if a, b := ix.MOASConflicts(d), sh.MOASConflicts(d); !reflect.DeepEqual(a, b) {
					t.Fatalf("MOASConflicts(%v) diverge: %v vs %v", d, a, b)
				}
			}
			if a, b := ix.ByOrigin(), sh.ByOrigin(); !reflect.DeepEqual(a, b) {
				t.Fatal("ByOrigin diverges")
			}
		})
	}
}

// comparePoint checks every point query for (p, d) against the
// unsharded reference.
func comparePoint(t *testing.T, ix *Index, sh *Sharded, p netx.Prefix, d timex.Day) {
	t.Helper()
	if a, b := ix.VisibleCount(p, d), sh.VisibleCount(p, d); a != b {
		t.Fatalf("VisibleCount(%v,%v) = %d vs %d", p, d, b, a)
	}
	if a, b := ix.VisibleFraction(p, d), sh.VisibleFraction(p, d); a != b {
		t.Fatalf("VisibleFraction(%v,%v) = %v vs %v", p, d, b, a)
	}
	if a, b := ix.Observed(p, d), sh.Observed(p, d); a != b {
		t.Fatalf("Observed(%v,%v) = %v vs %v", p, d, b, a)
	}
	if a, b := ix.AnyOverlapObserved(p, d), sh.AnyOverlapObserved(p, d); a != b {
		t.Fatalf("AnyOverlapObserved(%v,%v) = %v vs %v", p, d, b, a)
	}
	ao, aok := ix.OriginAt(p, d)
	bo, bok := sh.OriginAt(p, d)
	if ao != bo || aok != bok {
		t.Fatalf("OriginAt(%v,%v): %v,%v vs %v,%v", p, d, ao, aok, bo, bok)
	}
	ap, apok := ix.PathAt(p, d)
	bp, bpok := sh.PathAt(p, d)
	if apok != bpok || !ap.Equal(bp) {
		t.Fatalf("PathAt(%v,%v): %v,%v vs %v,%v", p, d, ap, apok, bp, bpok)
	}
	if a, b := ix.PeersObserving(p, d), sh.PeersObserving(p, d); !reflect.DeepEqual(a, b) {
		t.Fatalf("PeersObserving(%v,%v): %v vs %v", p, d, a, b)
	}
	for _, ref := range ix.Peers() {
		if a, b := ix.PeerObserved(ref, p, d), sh.PeerObserved(ref, p, d); a != b {
			t.Fatalf("PeerObserved(%v,%v,%v) = %v vs %v", ref, p, d, b, a)
		}
	}
}

// TestFrozenShardsShape checks the cut invariants: counts sum to the
// prefix total, bounds are the first prefix of each shard, k clamps to
// [1, n], and an unclosed index refuses to shard.
func TestFrozenShardsShape(t *testing.T) {
	ix := buildShardTestIndex(t)
	n := ix.NumPrefixes()

	if _, err := NewIndex().FrozenShards(2, 0); err == nil {
		t.Fatal("FrozenShards on an open index should fail")
	}

	for _, k := range []int{0, 1, 2, 7, n, n + 50} {
		fs, err := ix.FrozenShards(k, 2)
		if err != nil {
			t.Fatalf("FrozenShards(%d): %v", k, err)
		}
		want := k
		if want < 1 {
			want = 1
		}
		if want > n {
			want = n
		}
		if len(fs) != want {
			t.Fatalf("FrozenShards(%d) = %d shards, want %d", k, len(fs), want)
		}
		total := 0
		var prev netx.Prefix
		for i, f := range fs {
			if len(f.Prefixes) == 0 {
				t.Fatalf("shard %d/%d empty", i, len(fs))
			}
			if i > 0 && f.Prefixes[0].Compare(prev) <= 0 {
				t.Fatalf("shard %d bound %v not above previous %v", i, f.Prefixes[0], prev)
			}
			prev = f.Prefixes[0]
			total += len(f.Prefixes)
		}
		if total != n {
			t.Fatalf("shards cover %d prefixes, index has %d", total, n)
		}
	}
}

// TestShardedValidation exercises NewSharded's argument checking.
func TestShardedValidation(t *testing.T) {
	ix := buildShardTestIndex(t)
	fs, err := ix.FrozenShards(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShardedFromFrozen(nil, 0); err == nil {
		t.Fatal("ShardedFromFrozen(nil) should fail")
	}
	sh, err := ShardedFromFrozen(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 3 {
		t.Fatalf("NumShards = %d", sh.NumShards())
	}
	// Out-of-order bounds must be rejected.
	handles := make([]ShardHandle, len(fs))
	bounds := make([]netx.Prefix, len(fs))
	counts := make([]int, len(fs))
	for i, f := range fs {
		rix, err := FromFrozen(f)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = MemShard{Index: rix}
		bounds[i] = f.Prefixes[0]
		counts[i] = len(f.Prefixes)
	}
	bounds[0], bounds[1] = bounds[1], bounds[0]
	if _, err := NewSharded(handles, bounds, counts, fs[0].Peers, 0); err == nil {
		t.Fatal("NewSharded with unsorted bounds should fail")
	}
}

// TestShardedPointQueryAllocs extends the zero-allocation pin to the
// sharded router: boundary-table routing plus the no-defer
// acquire/release must add nothing on the heap to a point query.
func TestShardedPointQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ix := buildShardTestIndex(t)
	fs, err := ix.FrozenShards(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ShardedFromFrozen(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Prefixes()[ix.NumPrefixes()/2]
	missing := netx.MustParsePrefix("203.0.113.0/24")
	if avg := testing.AllocsPerRun(500, func() {
		sh.Observed(p, day0+5)
		sh.Observed(missing, day0+5)
		sh.VisibleFraction(p, day0+5)
		sh.VisibleCount(p, day0+5)
	}); avg != 0 {
		t.Errorf("sharded point queries allocate %.2f objects/op; want 0", avg)
	}
}
