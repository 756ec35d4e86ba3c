// Package serve is the read-only query layer over a loaded study: a
// long-lived HTTP/JSON daemon answering the paper's per-prefix questions
// (visibility, ROV outcome, DROP listing status, origin history, per-day
// figures) from one shared immutable index.
//
// The package follows the ingester/API split: something else builds the
// snapshot; serve only memory-maps it and answers queries. Concurrency
// is handled by immutability — a Generation never changes after
// construction, and replacing one is an atomic pointer swap guarded by
// the snapshot's refcount (see Server.Swap). Every response carries the
// generation digest so a client can always tell which archive state it
// was answered from; stale data is visible, never silent.
package serve

import (
	"encoding/hex"
	"sort"

	"dropscope/internal/analysis"
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/ribsnap"
	"dropscope/internal/rpki"
	"dropscope/internal/timex"
)

// Generation is one immutable, refcounted snapshot of the study: the
// mmap'd (or cold-built) RIB index, the analysis pipeline over it, and
// flat side tables precomputed so the point-query handlers never
// allocate. All fields are read-only after newGeneration returns.
type Generation struct {
	snap *ribsnap.Snapshot
	pipe *analysis.Pipeline

	// shards is non-nil for a generation served from the snapshot store:
	// the residency manager over its directory's shard files (one, for a
	// monolith). The snap above is then the mapping-free master snapshot
	// whose lifecycle closes the set (see ribsnap.ShardSet.Master).
	shards *ribsnap.ShardSet

	digestHex string // lower-case hex of the archive digest
	window    timex.Range

	// deltaBuilt marks a generation produced by the incremental append
	// path (overlay replay + merge) rather than a warm map or a cold
	// rebuild. Observability only — the bytes served are identical.
	deltaBuilt bool

	// ROA validity table: roaPrefixes is sorted (duplicates allowed) and
	// parallel to roaSpans. The trie-based rpki.Archive queries allocate
	// per call; this flat form answers RFC 6811 validation with binary
	// searches over the ≤ bits+1 ancestor prefixes.
	roaPrefixes []netx.Prefix
	roaSpans    []roaSpan

	// DROP listing intervals, same layout.
	dropPrefixes []netx.Prefix
	dropSpans    []dropSpan
}

// roaSpan is one ROA's lifetime, flattened for validation. The trust
// anchor is reduced to the two bits validation needs: whether it is one
// of the five production TALs validators configure by default, and
// whether it is an informational AS0 TAL.
type roaSpan struct {
	created timex.Day
	revoked timex.Day
	open    bool
	asn     bgp.ASN
	maxLen  uint8
	prod    bool
	as0     bool
}

func (sp *roaSpan) liveAt(d timex.Day) bool {
	return d >= sp.created && (sp.open || d < sp.revoked)
}

// dropSpan is one DROP listing interval [added, removed).
type dropSpan struct {
	added   timex.Day
	removed timex.Day
	open    bool
}

// newGeneration wraps a loaded snapshot and its pipeline. The snapshot
// is mapping-free — the wrapper of an index built in memory, or the
// master of a store generation's shard set — and the lifecycle protocol
// is identical either way.
func newGeneration(snap *ribsnap.Snapshot, shards *ribsnap.ShardSet, pipe *analysis.Pipeline) *Generation {
	g := &Generation{
		snap:      snap,
		pipe:      pipe,
		shards:    shards,
		digestHex: hex.EncodeToString(snap.Digest[:]),
		window:    pipe.Window(),
	}
	g.buildROATable(pipe.Dataset().RPKI)
	g.buildDropTable(pipe)
	return g
}

// Acquire pins the generation's mapping for the duration of one query.
// It fails with ribsnap.ErrClosed once the generation has been retired
// by a swap.
func (g *Generation) Acquire() error { return g.snap.Acquire() }

// Release undoes one Acquire. The retired mapping unmaps when the last
// in-flight reader releases.
func (g *Generation) Release() { g.snap.Release() }

// DigestHex returns the archive digest identifying this generation, as
// carried on every response.
func (g *Generation) DigestHex() string { return g.digestHex }

// Window returns the study window the generation covers.
func (g *Generation) Window() timex.Range { return g.window }

// Pipeline exposes the analysis pipeline for the allocating endpoints
// (figures, origin timelines) and tests.
func (g *Generation) Pipeline() *analysis.Pipeline { return g.pipe }

// Shards exposes the generation's shard residency manager, nil for a
// generation built in memory.
func (g *Generation) Shards() *ribsnap.ShardSet { return g.shards }

// DeltaBuilt reports whether the generation was produced by the
// incremental append path rather than a warm map or cold rebuild.
func (g *Generation) DeltaBuilt() bool { return g.deltaBuilt }

// buildROATable replays the ROA journal into flat parallel arrays. A
// revoke closes the oldest open span of the same ROA — the same
// first-match rule rpki.Archive.Revoke applies — so span lifetimes are
// identical to the archive's.
func (g *Generation) buildROATable(a *rpki.Archive) {
	if a == nil {
		return
	}
	open := make(map[rpki.ROA][]int)
	for _, e := range a.Events() {
		if e.Created {
			open[e.ROA] = append(open[e.ROA], len(g.roaSpans))
			g.roaPrefixes = append(g.roaPrefixes, e.ROA.Prefix)
			g.roaSpans = append(g.roaSpans, roaSpan{
				created: e.Day,
				open:    true,
				asn:     e.ROA.ASN,
				maxLen:  uint8(e.ROA.MaxLength),
				prod:    isProdTAL(e.ROA.TA),
				as0:     e.ROA.TA.IsAS0TAL(),
			})
			continue
		}
		if idxs := open[e.ROA]; len(idxs) > 0 {
			sp := &g.roaSpans[idxs[0]]
			sp.revoked, sp.open = e.Day, false
			open[e.ROA] = idxs[1:]
		}
	}
	sort.Sort(&roaByPrefix{g.roaPrefixes, g.roaSpans})
}

func isProdTAL(ta rpki.TrustAnchor) bool {
	switch ta {
	case rpki.TAAfrinic, rpki.TAAPNIC, rpki.TAARIN, rpki.TALACNIC, rpki.TARIPE:
		return true
	}
	return false
}

// buildDropTable flattens the pipeline's diffed listing events into
// per-prefix intervals. ListedAt over the diffed archive is equivalent
// to the interval test added <= d < removed because Added and Removed
// are both snapshot days.
func (g *Generation) buildDropTable(pipe *analysis.Pipeline) {
	for _, l := range pipe.Listings {
		g.dropPrefixes = append(g.dropPrefixes, l.Prefix)
		g.dropSpans = append(g.dropSpans, dropSpan{
			added:   l.Added,
			removed: l.Removed,
			open:    !l.HasRemoved,
		})
	}
	sort.Sort(&dropByPrefix{g.dropPrefixes, g.dropSpans})
}

type roaByPrefix struct {
	p []netx.Prefix
	s []roaSpan
}

func (t *roaByPrefix) Len() int           { return len(t.p) }
func (t *roaByPrefix) Less(i, j int) bool { return t.p[i].Compare(t.p[j]) < 0 }
func (t *roaByPrefix) Swap(i, j int) {
	t.p[i], t.p[j] = t.p[j], t.p[i]
	t.s[i], t.s[j] = t.s[j], t.s[i]
}

type dropByPrefix struct {
	p []netx.Prefix
	s []dropSpan
}

func (t *dropByPrefix) Len() int           { return len(t.p) }
func (t *dropByPrefix) Less(i, j int) bool { return t.p[i].Compare(t.p[j]) < 0 }
func (t *dropByPrefix) Swap(i, j int) {
	t.p[i], t.p[j] = t.p[j], t.p[i]
	t.s[i], t.s[j] = t.s[j], t.s[i]
}

// lowerBound returns the first index i with ps[i] >= q. Hand-rolled so
// the hot query path carries no sort.Search closure.
func lowerBound(ps []netx.Prefix, q netx.Prefix) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].Compare(q) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ROV runs RFC 6811 origin validation of (p, origin) against the ROAs
// live on day d, under the default production TALs; as0 additionally
// admits the informational AS0 TALs. Semantics match
// rpki.Archive.ValidateAt over the same TAL set; this form is
// allocation-free. Probing every ancestor prefix replaces the trie's
// covering walk.
func (g *Generation) ROV(p netx.Prefix, origin bgp.ASN, d timex.Day, as0 bool) rpki.Validity {
	covered := false
	for b := 0; b <= p.Bits(); b++ {
		q := netx.PrefixFrom(p.Addr(), b)
		for i := lowerBound(g.roaPrefixes, q); i < len(g.roaPrefixes) && g.roaPrefixes[i] == q; i++ {
			sp := &g.roaSpans[i]
			if !sp.liveAt(d) || !(sp.prod || (as0 && sp.as0)) {
				continue
			}
			covered = true
			if p.Bits() <= int(sp.maxLen) && sp.asn == origin && sp.asn != bgp.AS0 {
				return rpki.Valid
			}
		}
	}
	if covered {
		return rpki.Invalid
	}
	return rpki.NotFound
}

// DropListed reports whether p was on the DROP list effective on day d.
// Semantics match drop.Archive.ListedAt; this form is allocation-free.
func (g *Generation) DropListed(p netx.Prefix, d timex.Day) bool {
	for i := lowerBound(g.dropPrefixes, p); i < len(g.dropPrefixes) && g.dropPrefixes[i] == p; i++ {
		sp := &g.dropSpans[i]
		if sp.added <= d && (sp.open || d < sp.removed) {
			return true
		}
	}
	return false
}

// Visibility returns the exact-route visibility of p on day d: how many
// of the index's peers carried it, out of how many registered.
func (g *Generation) Visibility(p netx.Prefix, d timex.Day) (visible, peers int) {
	return g.pipe.Index.VisibleCount(p, d), g.pipe.Index.NumPeers()
}
