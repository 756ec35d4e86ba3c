package rib

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// ShardRelease unpins a shard index acquired through a ShardHandle.
type ShardRelease interface{ Release() }

// ShardHandle is one prefix-range shard of a sharded index. A handle
// may be backed by a resident in-memory Index (MemShard) or by a
// lazily mapped snapshot file whose residency is managed elsewhere
// (ribsnap.ShardSet): AcquireIndex pins the shard's index — faulting it
// back in if it was evicted — and the returned ShardRelease must be
// called when the query is done with it. Implementations must keep the
// resident fast path allocation-free: the point-query contract of the
// Querier interface extends through the handle boundary.
type ShardHandle interface {
	AcquireIndex() (*Index, ShardRelease, error)
}

// noRelease is the release token of an always-resident shard. It is an
// empty struct so converting it to ShardRelease never allocates.
type noRelease struct{}

func (noRelease) Release() {}

// MemShard is an always-resident in-memory shard.
type MemShard struct{ Index *Index }

// AcquireIndex returns the resident index; it never fails.
func (m MemShard) AcquireIndex() (*Index, ShardRelease, error) { return m.Index, noRelease{}, nil }

// FrozenShards partitions a closed index into k prefix-range shards and
// returns each shard's flat Frozen form, built on a bounded worker pool
// (workers <= 0 means runtime.GOMAXPROCS(0)). Cut points sit at
// prefix-rank boundaries of the address-sorted prefix column, chosen so
// the shards carry near-equal span counts; k is clamped to the number
// of distinct prefixes (and to 1 on an empty index), so every shard
// owns at least one prefix. Each shard's Frozen carries:
//
//   - the full global peer table (shared, not copied), so per-shard
//     peer ids and VisibleFraction denominators match the unsharded
//     index exactly;
//   - the shard's prefix sub-column (a subslice of the sorted column);
//   - only the AS paths its spans reference, renumbered dense in
//     ascending original-PathID order — for k == 1 that remap is the
//     identity, so the single shard is the unsharded Frozen;
//   - span and event columns rebased to shard-local offsets.
//
// The shards jointly answer every query byte-identically to the
// unsharded index (see Sharded); reassembling one shard via FromFrozen
// yields a closed index over just that prefix range.
func (ix *Index) FrozenShards(k, workers int) ([]*Frozen, error) {
	if !ix.closed {
		return nil, fmt.Errorf("rib: FrozenShards requires a closed index")
	}
	n := len(ix.sorted)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k <= 1 {
		f, err := ix.Frozen()
		if err != nil {
			return nil, err
		}
		return []*Frozen{f}, nil
	}

	// Cut before the first prefix whose cumulative span count reaches
	// j/k of the total, keeping every shard non-empty. Span count, not
	// prefix count, is the balance target: build and query cost scale
	// with spans, and a handful of heavy prefixes would otherwise land
	// in one shard.
	cuts := make([]int, k+1)
	cuts[k] = n
	total := len(ix.col)
	for j := 1; j < k; j++ {
		t := uint32(uint64(total) * uint64(j) / uint64(k))
		sid := sort.Search(n, func(i int) bool { return ix.spanOff[i] >= t })
		if lo := cuts[j-1] + 1; sid < lo {
			sid = lo
		}
		if hi := n - (k - j); sid > hi {
			sid = hi
		}
		cuts[j] = sid
	}

	out := make([]*Frozen, k)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= k {
					return
				}
				out[j] = ix.shardFrozen(cuts[j], cuts[j+1])
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// shardFrozen builds the flat form of the prefix-rank range [lo, hi).
func (ix *Index) shardFrozen(lo, hi int) *Frozen {
	colLo, colHi := ix.spanOff[lo], ix.spanOff[hi]
	shardCol := ix.col[colLo:colHi]

	// Renumber the shard's referenced paths dense, in ascending original
	// id order — deterministic whatever the span order, and the identity
	// when the shard references every path.
	remap := make([]int32, ix.paths.Len())
	for _, s := range shardCol {
		remap[s.Path] = 1
	}
	var paths []bgp.ASPath
	for id := range remap {
		if remap[id] != 0 {
			remap[id] = int32(len(paths)) + 1
			paths = append(paths, ix.paths.Path(bgp.PathID(id)))
		}
	}

	col := make([]Span, len(shardCol))
	for i, s := range shardCol {
		s.Prefix -= uint32(lo)
		s.Path = bgp.PathID(remap[s.Path] - 1)
		col[i] = s
	}
	spanOff := make([]uint32, hi-lo+1)
	for i := range spanOff {
		spanOff[i] = ix.spanOff[lo+i] - colLo
	}
	evLo, evHi := ix.evOff[lo], ix.evOff[hi]
	evOff := make([]uint32, hi-lo+1)
	for i := range evOff {
		evOff[i] = ix.evOff[lo+i] - evLo
	}
	return &Frozen{
		Peers:    ix.peers,
		Prefixes: ix.sorted[lo:hi],
		Paths:    paths,
		Col:      col,
		SpanOff:  spanOff,
		EvDay:    ix.evDay[evLo:evHi],
		EvCount:  ix.evCount[evLo:evHi],
		EvOff:    evOff,
		MaxDay:   ix.maxDay,
	}
}

// Sharded is the fan-out Querier over prefix-range shards. Point
// queries route to the single owning shard through the in-memory
// boundary table — one branch-free binary search, no allocation — and
// aggregate queries fan out across shards on a bounded worker pool,
// merging per-shard results in shard (address) order so every answer
// is byte-identical to the unsharded index the shards were cut from.
//
// A shard whose AcquireIndex fails (marked bad after a scrub finding,
// or its set closed) contributes nothing: point queries against its
// range answer "not observed" and aggregates skip it, so a degraded
// shard degrades only its own prefix range.
type Sharded struct {
	shards []ShardHandle
	// bounds[i] is the first (address-ordered) prefix owned by shard i;
	// shard 0 additionally owns everything below bounds[0].
	bounds  []netx.Prefix
	counts  []int // per-shard distinct prefix counts
	total   int
	peers   []PeerRef
	workers int
}

// NewSharded assembles a fan-out querier over handles. bounds[i] must
// be the first prefix of shard i and counts[i] its distinct prefix
// count, both in ascending shard order; peers is the global peer table
// every shard was built against. workers bounds aggregate fan-out
// concurrency (<= 0 means runtime.GOMAXPROCS(0)).
func NewSharded(handles []ShardHandle, bounds []netx.Prefix, counts []int, peers []PeerRef, workers int) (*Sharded, error) {
	if len(handles) == 0 {
		return nil, fmt.Errorf("rib: sharded index needs at least one shard")
	}
	if len(bounds) != len(handles) || len(counts) != len(handles) {
		return nil, fmt.Errorf("rib: sharded index has %d shards but %d bounds, %d counts",
			len(handles), len(bounds), len(counts))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1].Compare(bounds[i]) >= 0 {
			return nil, fmt.Errorf("rib: shard bounds out of order at %d (%s >= %s)",
				i, bounds[i-1], bounds[i])
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return &Sharded{
		shards:  handles,
		bounds:  bounds,
		counts:  counts,
		total:   total,
		peers:   peers,
		workers: workers,
	}, nil
}

// ShardedFromFrozen reassembles FrozenShards output into a resident
// in-memory sharded querier — the disk-free path the facade uses to
// prove sharded/unsharded byte-identity at study level.
func ShardedFromFrozen(fs []*Frozen, workers int) (*Sharded, error) {
	handles := make([]ShardHandle, len(fs))
	bounds := make([]netx.Prefix, len(fs))
	counts := make([]int, len(fs))
	var peers []PeerRef
	for i, f := range fs {
		ix, err := FromFrozen(f)
		if err != nil {
			return nil, fmt.Errorf("rib: shard %d: %w", i, err)
		}
		handles[i] = MemShard{Index: ix}
		if len(f.Prefixes) > 0 {
			bounds[i] = f.Prefixes[0]
		}
		counts[i] = len(f.Prefixes)
		if i == 0 {
			peers = f.Peers
		}
	}
	return NewSharded(handles, bounds, counts, peers, workers)
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Bounds returns the boundary table: the first prefix of each shard.
// Callers must not mutate it.
func (s *Sharded) Bounds() []netx.Prefix { return s.bounds }

// shardFor returns the owning shard of p: the largest i with
// bounds[i] <= p, or 0 when p sorts before every bound (that range
// holds no prefixes, so shard 0 correctly answers "not observed").
func (s *Sharded) shardFor(p netx.Prefix) int {
	lo, hi := 0, len(s.bounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.bounds[m].Compare(p) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// ShardFor reports which shard owns p — the route a point query on p
// takes. Exported for observability and tests; queries go through the
// Querier methods.
func (s *Sharded) ShardFor(p netx.Prefix) int { return s.shardFor(p) }

// at pins shard i, reporting failure as absence.
func (s *Sharded) at(i int) (*Index, ShardRelease, bool) {
	ix, rel, err := s.shards[i].AcquireIndex()
	if err != nil {
		return nil, nil, false
	}
	return ix, rel, true
}

// Peers returns the global peer table.
func (s *Sharded) Peers() []PeerRef { return s.peers }

// NumPeers returns the number of registered peers.
func (s *Sharded) NumPeers() int { return len(s.peers) }

// NumPrefixes returns the number of distinct prefixes across shards.
func (s *Sharded) NumPrefixes() int { return s.total }

// VisibleCount routes to the owning shard. Allocation-free on a
// resident shard: the boundary search, the handle pin, and the shard's
// own two binary searches allocate nothing.
func (s *Sharded) VisibleCount(p netx.Prefix, d timex.Day) int {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return 0
	}
	n := ix.VisibleCount(p, d)
	rel.Release()
	return n
}

// VisibleFraction routes to the owning shard, whose full peer table
// supplies the global denominator.
func (s *Sharded) VisibleFraction(p netx.Prefix, d timex.Day) float64 {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return 0
	}
	f := ix.VisibleFraction(p, d)
	rel.Release()
	return f
}

// Observed routes to the owning shard.
func (s *Sharded) Observed(p netx.Prefix, d timex.Day) bool {
	return s.VisibleCount(p, d) > 0
}

// PeerObserved routes to the owning shard.
func (s *Sharded) PeerObserved(ref PeerRef, p netx.Prefix, d timex.Day) bool {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return false
	}
	v := ix.PeerObserved(ref, p, d)
	rel.Release()
	return v
}

// PeersObserving routes to the owning shard.
func (s *Sharded) PeersObserving(p netx.Prefix, d timex.Day) []PeerRef {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return nil
	}
	out := ix.PeersObserving(p, d)
	rel.Release()
	return out
}

// OriginAt routes to the owning shard.
func (s *Sharded) OriginAt(p netx.Prefix, d timex.Day) (bgp.ASN, bool) {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return 0, false
	}
	asn, found := ix.OriginAt(p, d)
	rel.Release()
	return asn, found
}

// PathAt routes to the owning shard.
func (s *Sharded) PathAt(p netx.Prefix, d timex.Day) (bgp.ASPath, bool) {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return nil, false
	}
	path, found := ix.PathAt(p, d)
	rel.Release()
	return path, found
}

// OriginTimeline routes to the owning shard.
func (s *Sharded) OriginTimeline(p netx.Prefix) []OriginSpan {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return nil
	}
	out := ix.OriginTimeline(p)
	rel.Release()
	return out
}

// FirstObserved routes to the owning shard.
func (s *Sharded) FirstObserved(p netx.Prefix) (timex.Day, bool) {
	ix, rel, ok := s.at(s.shardFor(p))
	if !ok {
		return 0, false
	}
	day, found := ix.FirstObserved(p)
	rel.Release()
	return day, found
}

// AnyOverlapObserved probes every shard that can hold a prefix
// overlapping p. A covering prefix q = p.Addr()/b lives in exactly one
// shard — the owner of q — and the owners are non-decreasing in b, so
// consecutive duplicate probes collapse; prefixes covered by p occupy
// the contiguous shard range from p's owner through the owner of
// p.LastAddr()/32. Each probed shard runs its own covering-probe +
// covered-run scan, which is correct restricted to the shard's range:
// the union over the probe set equals the unsharded answer.
func (s *Sharded) AnyOverlapObserved(p netx.Prefix, d timex.Day) bool {
	last := -1
	for b := 0; b <= p.Bits(); b++ {
		i := s.shardFor(netx.PrefixFrom(p.Addr(), b))
		if i == last {
			continue
		}
		last = i
		if s.overlapIn(i, p, d) {
			return true
		}
	}
	// last is now p's owning shard: the start of the covered range.
	hi := s.shardFor(netx.PrefixFrom(p.LastAddr(), 32))
	for i := last + 1; i <= hi; i++ {
		if s.overlapIn(i, p, d) {
			return true
		}
	}
	return false
}

func (s *Sharded) overlapIn(i int, p netx.Prefix, d timex.Day) bool {
	ix, rel, ok := s.at(i)
	if !ok {
		return false
	}
	v := ix.AnyOverlapObserved(p, d)
	rel.Release()
	return v
}

// fanOut runs fn over every acquirable shard on the bounded pool; fn
// must only write state owned by its shard slot.
func (s *Sharded) fanOut(fn func(i int, ix *Index)) {
	one := func(i int) {
		if ix, rel, ok := s.at(i); ok {
			fn(i, ix)
			rel.Release()
		}
	}
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 {
		for i := range s.shards {
			one(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.shards) {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
}

// RoutedSpace fans out: each shard filters its own prefixes, and the
// parts are concatenated in shard order. Shards hold disjoint ascending
// prefix ranges, so the concatenation is the unsharded scan's sorted
// slice, and every derived aggregate is identical.
func (s *Sharded) RoutedSpace(d timex.Day, minPeers int) *netx.SortedSet {
	parts := make([][]netx.Prefix, len(s.shards))
	s.fanOut(func(i int, ix *Index) { parts[i] = ix.routedPrefixes(d, minPeers) })
	return netx.NewSortedSet(slices.Concat(parts...))
}

// MOASConflicts fans out and concatenates: shards hold disjoint
// ascending prefix ranges and each shard's result is address-sorted,
// so the concatenation is globally address-sorted.
func (s *Sharded) MOASConflicts(d timex.Day) []MOAS {
	parts := make([][]MOAS, len(s.shards))
	s.fanOut(func(i int, ix *Index) { parts[i] = ix.MOASConflicts(d) })
	var out []MOAS
	for _, ms := range parts {
		out = append(out, ms...)
	}
	return out
}

// ByOrigin fans out and merges per-origin activity. Per-shard prefix
// lists are sorted and deduplicated over disjoint ascending ranges, so
// concatenating them in shard order reproduces the globally sorted,
// deduplicated list; day sums are order-independent and the
// concatenated span lengths are sorted again (one pass where an origin
// lives in a single shard).
func (s *Sharded) ByOrigin() map[bgp.ASN]*OriginActivity {
	parts := make([]map[bgp.ASN]*OriginActivity, len(s.shards))
	s.fanOut(func(i int, ix *Index) { parts[i] = ix.ByOrigin() })
	out := make(map[bgp.ASN]*OriginActivity)
	for _, part := range parts {
		for asn, act := range part {
			g := out[asn]
			if g == nil {
				out[asn] = act
				continue
			}
			g.Prefixes = append(g.Prefixes, act.Prefixes...)
			g.OriginatedDays += act.OriginatedDays
			g.SpanDays = append(g.SpanDays, act.SpanDays...)
		}
	}
	for _, g := range out {
		slices.Sort(g.SpanDays)
	}
	return out
}

// Prefixes concatenates the shards' address-sorted prefix columns.
func (s *Sharded) Prefixes() []netx.Prefix {
	out := make([]netx.Prefix, 0, s.total)
	for i := range s.shards {
		ix, rel, ok := s.at(i)
		if !ok {
			continue
		}
		out = append(out, ix.sorted...)
		rel.Release()
	}
	return out
}
