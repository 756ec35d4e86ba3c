// Package rib reassembles per-peer routing tables from MRT archives and
// answers the temporal queries the paper's analysis needs: how many peers
// observed a prefix on a given day, which AS originated it, whether any
// announcement covered a block of address space, and full origination
// timelines for case-study prefixes.
//
// An Index is built by loading each collector's RIB dump (PEER_INDEX_TABLE
// followed by RIB_IPV4_UNICAST records) and then replaying the interleaved
// BGP4MP update stream. Routes are tracked as day-resolution presence
// intervals per (prefix, peer).
//
// # Representation
//
// The load path is allocation-disciplined: prefixes and AS paths are
// hash-consed into dense integer handles (netx.Interner,
// bgp.PathInterner), and every presence interval is one 20-byte entry in
// a single flat span array — no per-prefix maps or per-peer slices. At
// Close the spans are sorted into a columnar store grouped by (prefix,
// peer), with per-prefix cumulative visibility-count events, so point
// queries like Observed, VisibleFraction, and the RoutedSpace sweep are
// O(log n) binary searches that allocate nothing. Queries answer from
// that store alone, so an Index answers only after Close: before it,
// every query reports nothing observed.
//
// # Concurrency
//
// Reassembly parallelizes per collector: LoadCollector builds one
// collector's state with no shared references, so any number of
// LoadCollector calls may run concurrently. Merging CollectorRIBs into an
// Index and calling Close must happen on a single goroutine; merging in a
// fixed collector order yields an Index identical to serial loading in
// that order. Build does all of it: one pass per collector stream, then
// the merge in name order and Close. After Close the Index is immutable
// (Close builds the columnar store eagerly; covering queries
// binary-search its sorted prefix column), so every query method is
// safe for unlimited concurrent readers. Close is idempotent: repeated
// calls do not re-sort or re-intern anything.
package rib

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// PeerRef identifies one peer of one collector.
type PeerRef struct {
	Collector string
	Addr      netx.Addr
	AS        bgp.ASN
}

// String renders the peer as "collector/AS64500/203.0.113.1".
func (p PeerRef) String() string {
	return fmt.Sprintf("%s/%s/%s", p.Collector, p.AS, p.Addr)
}

// Span is a half-open day interval [From, To) during which a peer
// carried a route for a prefix — one 20-byte entry of the flat span
// store. To == openEnd while the route is still installed. Prefix and
// Path are dense handles (a netx interner / sorted-prefix id and a
// bgp.PathID); origin, neighbor, and transit ASes live in the path
// interner's per-path metadata, stored once per distinct path instead
// of once per span. The fields are exported so snapshot layers
// (internal/ribsnap) can lay spans out as flat binary sections and map
// them back without copying; treat them as read-only handles. Inside
// the columnar store built at Close, Prefix holds the address-sorted
// prefix id rather than the load-time interner handle.
type Span struct {
	Prefix uint32
	Peer   int32
	From   timex.Day
	To     timex.Day
	Path   bgp.PathID
}

const openEnd = timex.Day(1<<31 - 1)

// closeMarker is the To stamped on spans still open at Close(end):
// one past the largest day the index has seen, so it can never
// collide with a genuine close (which ends at a record day <= maxDay).
func closeMarker(end, maxDay timex.Day) timex.Day {
	if maxDay > end {
		return maxDay + 1
	}
	return end + 1
}

// openKey addresses the currently-open span of one (prefix, peer).
type openKey struct {
	prefix uint32
	peer   int32
}

// Index is the reassembled multi-collector view. Build it either by
// calling Load per collector, or by merging independently built
// CollectorRIBs with Merge; the two paths produce identical indexes when
// collectors arrive in the same order. After Close the Index is immutable
// and safe for concurrent readers.
type Index struct {
	peers   []PeerRef
	peerIDs map[PeerRef]int

	prefixes netx.Interner
	paths    *bgp.PathInterner
	spans    []Span
	closed   bool
	// maxDay is the largest day stamped on any applied record — the
	// delta-append invariant: a column span is open at Close(end) iff
	// To == closeMarker(end, maxDay). Persisted in the snapshot
	// lineage so an append can recover the open set before splicing.
	maxDay timex.Day

	// Columnar store, built once at Close. Every slice is flat and
	// position-addressed — no pointers — so a snapshot layer can write
	// the whole store as binary sections and adopt mapped memory back
	// via FromFrozen without copying. Exact-prefix lookup and the
	// covering/covered-by walks are binary searches over sorted, so no
	// pointer trie (and no per-node allocation) survives the build.
	sorted  []netx.Prefix // address-sorted distinct prefixes
	col     []Span        // grouped by sorted-prefix id (stored in Span.Prefix), then peer, insertion order within
	spanOff []uint32      // len(sorted)+1 offsets into col
	evDay   []timex.Day   // per-prefix visibility events: day ...
	evCount []int32       // ... and the peer count from that day on
	evOff   []uint32      // len(sorted)+1 offsets into evDay/evCount
}

// NewIndex returns an empty Index.
func NewIndex() *Index {
	return &Index{
		peerIDs: make(map[PeerRef]int),
		paths:   &bgp.PathInterner{},
	}
}

// Peers returns all peers registered via peer index tables, in
// registration order.
func (ix *Index) Peers() []PeerRef { return ix.peers }

// NumPrefixes returns the number of distinct prefixes ever observed.
func (ix *Index) NumPrefixes() int { return len(ix.sorted) }

func (ix *Index) peerID(ref PeerRef) int {
	if id, ok := ix.peerIDs[ref]; ok {
		return id
	}
	id := len(ix.peers)
	ix.peers = append(ix.peers, ref)
	ix.peerIDs[ref] = id
	return id
}

// CollectorRIB is one collector's independently reassembled state. It is
// self-contained — peer ids, prefix handles, and path handles are
// collector-local and nothing references the destination Index — so
// LoadCollector calls for different collectors may run on concurrent
// goroutines, with the results merged afterwards in a deterministic
// order via (*Index).Merge.
type CollectorRIB struct {
	collector string
	peers     []PeerRef
	peerIDs   map[PeerRef]int
	table     []int // MRT peer index -> local peer id; nil until the index table
	prefixes  netx.Interner
	paths     bgp.PathInterner
	spans     []Span
	open      map[openKey]int32 // (prefix, peer) -> index+1 of its open span
	maxDay    timex.Day         // largest day stamped on any applied record
}

func (c *CollectorRIB) peerID(ref PeerRef) int {
	if id, ok := c.peerIDs[ref]; ok {
		return id
	}
	id := len(c.peers)
	c.peers = append(c.peers, ref)
	c.peerIDs[ref] = id
	return id
}

func newCollectorRIB(collector string) *CollectorRIB {
	return &CollectorRIB{
		collector: collector,
		peerIDs:   make(map[PeerRef]int),
		open:      make(map[openKey]int32),
	}
}

// RecordSource is a stream of decoded MRT records ending in io.EOF —
// *mrt.Reader satisfies it directly.
type RecordSource interface {
	Next() (mrt.Record, error)
}

// LoadCollector consumes one collector's MRT record stream into a
// standalone CollectorRIB: a PEER_INDEX_TABLE declares the peer set,
// RIB_IPV4_UNICAST records seed routes, and BGP4MP messages open and close
// presence intervals. Records must be in timestamp order within the
// stream. Every prefix and path kept is interned (copied), so the source
// may recycle record storage between Next calls — an mrt.Reader in
// ReuseRecords mode makes the decode loop allocation-free. An error from
// the source (other than io.EOF) aborts the load.
//
// With a nil src the first record that cannot be applied (a RIB entry
// before any peer index table, a peer index beyond the table, an
// unsupported record type) fails the load; otherwise such records are
// skipped and classified on src, which must not be shared with a
// concurrent loader.
func LoadCollector(collector string, rs RecordSource, src *ingest.Source) (*CollectorRIB, error) {
	c := newCollectorRIB(collector)
	for {
		rec, err := rs.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		if err := c.apply(rec, src); err != nil {
			return nil, err
		}
	}
}

// apply folds one record into the collector state. It retains nothing
// from the record itself: prefixes and paths are interned (copied) and
// peers are copied into PeerRefs.
func (c *CollectorRIB) apply(rec mrt.Record, src *ingest.Source) error {
	switch r := rec.(type) {
	case *mrt.PeerIndexTable:
		table := make([]int, len(r.Peers))
		for i, p := range r.Peers {
			table[i] = c.peerID(PeerRef{Collector: c.collector, Addr: p.Addr, AS: p.AS})
		}
		c.table = table
	case *mrt.RIBPrefix:
		if c.table == nil {
			if src != nil {
				src.Skip(ingest.Corrupt)
				return nil
			}
			return fmt.Errorf("rib: %s: RIB record before peer index table", c.collector)
		}
		day := timex.FromTime(r.When)
		if day > c.maxDay {
			c.maxDay = day
		}
		pfx := c.prefixes.Intern(r.Prefix)
		bad := false
		for _, e := range r.Entries {
			if int(e.PeerIndex) >= len(c.table) {
				if src != nil {
					bad = true
					continue
				}
				return fmt.Errorf("rib: %s: peer index %d out of range", c.collector, e.PeerIndex)
			}
			c.openSpan(pfx, c.table[e.PeerIndex], day, e.Attrs.Path)
		}
		if bad {
			src.Skip(ingest.Corrupt)
		}
	case *mrt.BGP4MPMessage:
		day := timex.FromTime(r.When)
		if day > c.maxDay {
			c.maxDay = day
		}
		pid := c.peerID(PeerRef{Collector: c.collector, Addr: r.PeerAddr, AS: r.PeerAS})
		for _, p := range r.Update.Withdrawn {
			c.closeSpan(c.prefixes.Intern(p), pid, day)
		}
		for _, p := range r.Update.NLRI {
			c.openSpan(c.prefixes.Intern(p), pid, day, r.Update.Attrs.Path)
		}
	default:
		if src != nil {
			src.Skip(ingest.Unsupported)
			return nil
		}
		return fmt.Errorf("rib: %s: unsupported record %T", c.collector, rec)
	}
	return nil
}

// openSpan starts (or re-points) the peer's route for the prefix.
func (c *CollectorRIB) openSpan(pfx uint32, pid int, day timex.Day, path bgp.ASPath) {
	id := c.paths.Intern(path)
	k := openKey{prefix: pfx, peer: int32(pid)}
	if si := c.open[k]; si != 0 {
		s := &c.spans[si-1]
		if s.Path == id {
			return // implicit re-announcement of the same route
		}
		// Implicit withdraw: route replaced by a different path same day.
		s.To = day
		if s.To < s.From {
			s.To = s.From
		}
	}
	c.spans = append(c.spans, Span{Prefix: pfx, Peer: int32(pid), From: day, To: openEnd, Path: id})
	c.open[k] = int32(len(c.spans))
}

// closeSpan ends the peer's open route for the prefix, if any.
func (c *CollectorRIB) closeSpan(pfx uint32, pid int, day timex.Day) {
	k := openKey{prefix: pfx, peer: int32(pid)}
	if si := c.open[k]; si != 0 {
		s := &c.spans[si-1]
		s.To = day
		if s.To < s.From {
			s.To = s.From
		}
		delete(c.open, k)
	}
}

// Merge folds one collector's state into the index, remapping the
// collector-local peer ids, prefix handles, and path handles onto the
// global spaces. Merge is not itself safe for concurrent use — call it
// from one goroutine, in sorted collector order for results identical
// to serial Load calls.
func (ix *Index) Merge(c *CollectorRIB) error {
	if ix.closed {
		return fmt.Errorf("rib: index already closed")
	}
	// Remap local ids to global ones. Peer refs are collector-scoped, so
	// collisions only occur when the same collector is merged twice; reuse
	// the existing id then, as serial loading would.
	remap := make([]int, len(c.peers))
	for lid, ref := range c.peers {
		remap[lid] = ix.peerID(ref)
	}
	if c.maxDay > ix.maxDay {
		ix.maxDay = c.maxDay
	}
	pathRemap := make([]bgp.PathID, c.paths.Len())
	for i := range pathRemap {
		// The collector interner's canonical copies are immutable, so the
		// global interner shares them rather than cloning again.
		pathRemap[i] = ix.paths.InternShared(c.paths.Path(bgp.PathID(i)))
	}
	prefixRemap := make([]uint32, c.prefixes.Len())
	for i := range prefixRemap {
		prefixRemap[i] = ix.prefixes.Intern(c.prefixes.At(uint32(i)))
	}
	if cap(ix.spans)-len(ix.spans) < len(c.spans) {
		grown := make([]Span, len(ix.spans), len(ix.spans)+len(c.spans))
		copy(grown, ix.spans)
		ix.spans = grown
	}
	for _, s := range c.spans {
		ix.spans = append(ix.spans, Span{
			Prefix: prefixRemap[s.Prefix],
			Peer:   int32(remap[s.Peer]),
			From:   s.From,
			To:     s.To,
			Path:   pathRemap[s.Path],
		})
	}
	return nil
}

// Load consumes one collector's MRT record stream: a PEER_INDEX_TABLE
// declares the peer set, RIB_IPV4_UNICAST records seed routes, and
// BGP4MP messages open and close presence intervals. Records must be in
// timestamp order within the stream. Load is the serial path over an
// in-memory stream; it is exactly a strict LoadCollector followed by
// Merge.
func (ix *Index) Load(collector string, recs []mrt.Record) error {
	if ix.closed {
		return fmt.Errorf("rib: index already closed")
	}
	c, err := LoadCollector(collector, &records{recs: recs}, nil)
	if err != nil {
		return err
	}
	return ix.Merge(c)
}

// Close finalizes the index. Routes still installed are treated as
// remaining installed through end. It builds the columnar span store
// and the per-prefix visibility events every query answers from, so
// queries see nothing until Close has run; after it the index is fully
// immutable, every query method is safe for concurrent readers and the
// point queries are allocation-free. Close is idempotent; calls after
// the first return immediately without re-sorting or re-interning
// anything.
func (ix *Index) Close(end timex.Day) {
	if ix.closed {
		return
	}
	// Open spans are stamped one past the largest day the index has
	// seen — max(end, maxDay)+1 — never the bare end+1: a record with a
	// day beyond the close day (archives legitimately run past the
	// study window) could otherwise close a span AT end+1 and make the
	// open marker ambiguous. With the max, a genuinely closed span
	// always ends at a record day <= maxDay < marker, so the
	// delta-append path can recover exactly the open set. Queries are
	// unaffected: both markers exceed every in-window day.
	openTo := closeMarker(end, ix.maxDay)
	for i := range ix.spans {
		if ix.spans[i].To == openEnd {
			ix.spans[i].To = openTo
		}
	}
	ix.build()
	// The raw span array and the prefix interner are fully superseded by
	// the columnar store: no query reads them, and Merge/Load refuse a
	// closed index. Dropping them halves the live span memory.
	ix.spans = nil
	ix.prefixes = netx.Interner{}
	ix.closed = true
}

// build constructs the columnar store: spans counting-sorted into
// address-ordered per-prefix buckets (stable, so insertion order within
// a (prefix, peer) group survives) and per-prefix cumulative visibility
// events. Span.Prefix is rewritten to the sorted-prefix id as each span
// lands in its bucket, so the finished store references only
// position-addressed flat arrays — exactly what the snapshot layer
// serializes and what covering queries binary-search.
func (ix *Index) build() {
	n := ix.prefixes.Len()
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return ix.prefixes.At(order[i]).Compare(ix.prefixes.At(order[j])) < 0
	})
	ix.sorted = make([]netx.Prefix, n)
	rank := make([]uint32, n) // load-time interner handle -> sorted id
	for sid, lid := range order {
		ix.sorted[sid] = ix.prefixes.At(lid)
		rank[lid] = uint32(sid)
	}

	// Two-pass LSD radix: a stable counting sort by peer, then by
	// sorted-prefix id, leaves spans grouped by prefix with each group
	// sub-grouped by peer and insertion (time) order intact within —
	// linear time, no per-prefix comparison sorts.
	npeer := len(ix.peers)
	byPeer := make([]Span, len(ix.spans))
	pcnt := make([]uint32, npeer+1)
	for _, s := range ix.spans {
		pcnt[s.Peer+1]++
	}
	for i := 1; i <= npeer; i++ {
		pcnt[i] += pcnt[i-1]
	}
	for _, s := range ix.spans {
		byPeer[pcnt[s.Peer]] = s
		pcnt[s.Peer]++
	}

	offs := make([]uint32, n+1)
	for _, s := range byPeer {
		offs[rank[s.Prefix]+1]++
	}
	for i := 1; i <= n; i++ {
		offs[i] += offs[i-1]
	}
	pos := make([]uint32, n)
	copy(pos, offs[:n])
	col := make([]Span, len(byPeer))
	for _, s := range byPeer {
		sid := rank[s.Prefix]
		s.Prefix = sid
		col[pos[sid]] = s
		pos[sid]++
	}
	ix.col = col
	ix.spanOff = offs

	ix.buildEvents()
}

// buildEvents derives, per prefix, a sorted event list (day, peer count
// from that day on). A peer's spans may overlap — the same collector
// merged twice, or duplicated dump records — so each peer's intervals
// are unioned first, keeping every peer's contribution to the count in
// {0, 1} exactly as the per-peer observedBy scan behaved.
func (ix *Index) buildEvents() {
	n := len(ix.sorted)
	ix.evOff = make([]uint32, n+1)
	ix.evDay = ix.evDay[:0]
	ix.evCount = ix.evCount[:0]
	var sc evScratch
	for sid := 0; sid < n; sid++ {
		ix.evDay, ix.evCount = appendPrefixEvents(
			ix.evDay, ix.evCount, ix.bucket(uint32(sid)), &sc)
		ix.evOff[sid+1] = uint32(len(ix.evDay))
	}
}

// evScratch is the event build's reusable sorter and interval scratch;
// the closure-based sort helpers allocate per call, which at one call
// per prefix dominated the whole build, so the build reuses one typed
// sorter and one interval buffer across its prefixes.
type evScratch struct {
	es  evSorter
	ivs []dayIV
}

// appendPrefixEvents unions one prefix's span bucket into (day, count)
// events appended to days/counts, returning the grown slices.
func appendPrefixEvents(days []timex.Day, counts []int32, spans []Span, sc *evScratch) ([]timex.Day, []int32) {
	evs := sc.es.evs[:0]
	ivs := sc.ivs
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].Peer == spans[i].Peer {
			j++
		}
		ivs = ivs[:0]
		for _, s := range spans[i:j] {
			if s.From < s.To {
				ivs = append(ivs, dayIV{s.From, s.To})
			}
		}
		i = j
		if len(ivs) == 0 {
			continue
		}
		sortIVs(ivs)
		cur := ivs[0]
		for _, v := range ivs[1:] {
			if v.from <= cur.to {
				if v.to > cur.to {
					cur.to = v.to
				}
				continue
			}
			evs = append(evs, visEvent{cur.from, 1}, visEvent{cur.to, -1})
			cur = v
		}
		evs = append(evs, visEvent{cur.from, 1}, visEvent{cur.to, -1})
	}
	sc.ivs = ivs
	sc.es.evs = evs
	sort.Sort(&sc.es)
	var count int32
	for k := 0; k < len(evs); {
		day := evs[k].day
		for k < len(evs) && evs[k].day == day {
			count += evs[k].delta
			k++
		}
		days = append(days, day)
		counts = append(counts, count)
	}
	return days, counts
}

type dayIV struct{ from, to timex.Day }

// sortIVs is an insertion sort by (from, to): per-peer interval lists
// are almost always a handful of entries, and a typed sort keeps the
// inner build loop allocation-free.
func sortIVs(ivs []dayIV) {
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0; j-- {
			a, b := ivs[j-1], ivs[j]
			if b.from > a.from || (b.from == a.from && b.to >= a.to) {
				break
			}
			ivs[j-1], ivs[j] = b, a
		}
	}
}

type visEvent struct {
	day   timex.Day
	delta int32
}

type evSorter struct{ evs []visEvent }

func (s *evSorter) Len() int           { return len(s.evs) }
func (s *evSorter) Less(i, j int) bool { return s.evs[i].day < s.evs[j].day }
func (s *evSorter) Swap(i, j int)      { s.evs[i], s.evs[j] = s.evs[j], s.evs[i] }

// eventCount returns how many peers observed the sid-th sorted prefix
// on day d: a binary search over the prefix's cumulative events.
func (ix *Index) eventCount(sid uint32, d timex.Day) int32 {
	lo, hi := int(ix.evOff[sid]), int(ix.evOff[sid+1])
	i, j := lo, hi
	for i < j {
		m := int(uint(i+j) >> 1)
		if ix.evDay[m] <= d {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == lo {
		return 0
	}
	return ix.evCount[i-1]
}

// sortedID returns p's address-sorted prefix id in the built store: a
// hand-rolled binary search over sorted, so the point-query paths stay
// allocation-free and need no interner map — a warm-loaded (snapshot)
// index has only the flat arrays.
func (ix *Index) sortedID(p netx.Prefix) (uint32, bool) {
	i, ok := netx.SearchPrefixes(ix.sorted, p)
	return uint32(i), ok
}

// bucket returns the sid-th sorted prefix's spans grouped by peer
// (ascending), insertion order within each group.
func (ix *Index) bucket(sid uint32) []Span {
	return ix.col[ix.spanOff[sid]:ix.spanOff[sid+1]]
}

// spansOf returns p's bucket, nil if p was never observed.
func (ix *Index) spansOf(p netx.Prefix) []Span {
	sid, ok := ix.sortedID(p)
	if !ok {
		return nil
	}
	return ix.bucket(sid)
}

// firstCovering walks peer groups in ascending-peer order and reports
// each peer's first span covering day d (the same "first matching span
// wins" rule the per-peer scan used). fn returning false stops the walk.
func firstCovering(spans []Span, d timex.Day, fn func(s Span) bool) {
	for i := 0; i < len(spans); {
		j := i
		found := -1
		for j < len(spans) && spans[j].Peer == spans[i].Peer {
			if found < 0 && d >= spans[j].From && d < spans[j].To {
				found = j
			}
			j++
		}
		if found >= 0 && !fn(spans[found]) {
			return
		}
		i = j
	}
}

// visCount returns how many peers observed p on day d.
func (ix *Index) visCount(p netx.Prefix, d timex.Day) int {
	if sid, ok := ix.sortedID(p); ok {
		return int(ix.eventCount(sid, d))
	}
	return 0
}

// NumPeers returns the number of registered peers across all collectors.
func (ix *Index) NumPeers() int { return len(ix.peers) }

// MaxDay returns the largest day stamped on any record folded into the
// index (0 if no dated record was ever applied). The delta-append path
// relies on it: open routes are recoverable from a closed column store
// only while MaxDay does not exceed the Close day.
func (ix *Index) MaxDay() timex.Day { return ix.maxDay }

// VisibleCount returns how many peers carried an exact route for p on
// day d. After Close it is two binary searches and allocates nothing —
// the point query serving layers sit in their request hot path.
func (ix *Index) VisibleCount(p netx.Prefix, d timex.Day) int {
	return ix.visCount(p, d)
}

// PeersObserving returns the peers that carried an exact route for p on
// day d.
func (ix *Index) PeersObserving(p netx.Prefix, d timex.Day) []PeerRef {
	var out []PeerRef
	firstCovering(ix.spansOf(p), d, func(s Span) bool {
		out = append(out, ix.peers[s.Peer])
		return true
	})
	return out
}

// VisibleFraction returns the fraction of all registered peers that
// carried an exact route for p on day d. With no registered peers it
// returns 0.
func (ix *Index) VisibleFraction(p netx.Prefix, d timex.Day) float64 {
	if len(ix.peers) == 0 {
		return 0
	}
	return float64(ix.visCount(p, d)) / float64(len(ix.peers))
}

// Observed reports whether any peer carried an exact route for p on day d.
func (ix *Index) Observed(p netx.Prefix, d timex.Day) bool {
	return ix.visCount(p, d) > 0
}

// PeerObserved reports whether the specific peer carried an exact route
// for p on day d.
func (ix *Index) PeerObserved(ref PeerRef, p netx.Prefix, d timex.Day) bool {
	pid, ok := ix.peerIDs[ref]
	if !ok {
		return false
	}
	spans := ix.spansOf(p)
	// Bucket is sorted by peer: jump to the peer's group.
	k := sort.Search(len(spans), func(i int) bool { return spans[i].Peer >= int32(pid) })
	for ; k < len(spans) && spans[k].Peer == int32(pid); k++ {
		if d >= spans[k].From && d < spans[k].To {
			return true
		}
	}
	return false
}

// OriginAt returns the plurality origin AS across peers observing p on
// day d.
func (ix *Index) OriginAt(p netx.Prefix, d timex.Day) (bgp.ASN, bool) {
	counts := make(map[bgp.ASN]int)
	firstCovering(ix.spansOf(p), d, func(s Span) bool {
		counts[ix.paths.Meta(s.Path).Origin]++
		return true
	})
	var best bgp.ASN
	bestN := 0
	for asn, n := range counts {
		if n > bestN || (n == bestN && asn < best) {
			best, bestN = asn, n
		}
	}
	return best, bestN > 0
}

// PathAt returns one observing peer's AS path for p on day d (the
// lowest-numbered observing peer, for determinism). Callers must not
// mutate the returned path: it is the interner's canonical copy.
func (ix *Index) PathAt(p netx.Prefix, d timex.Day) (bgp.ASPath, bool) {
	var path bgp.ASPath
	found := false
	firstCovering(ix.spansOf(p), d, func(s Span) bool {
		path, found = ix.paths.Path(s.Path), true
		return false
	})
	return path, found
}

// OriginSpan is one interval of an origination timeline.
type OriginSpan struct {
	From, To timex.Day // half-open [From, To)
	Origin   bgp.ASN
	Transit  bgp.ASN // second-to-last AS on the path, 0 if none
}

// OriginTimeline merges all peers' spans for p into a deduplicated
// origination history ordered by start day. Overlapping spans with the
// same (origin, transit) merge; distinct origins yield separate entries.
func (ix *Index) OriginTimeline(p netx.Prefix) []OriginSpan {
	spans := ix.spansOf(p)
	if len(spans) == 0 {
		return nil
	}
	return ix.timelineInto(make([]OriginSpan, 0, len(spans)), spans)
}

// timelineInto builds the merged origination history of one prefix's
// spans over dst's storage and returns it: sorted and merged in place,
// so a dst with room for len(spans) entries makes it allocation-free.
func (ix *Index) timelineInto(dst []OriginSpan, spans []Span) []OriginSpan {
	dst = dst[:0]
	for _, s := range spans {
		m := ix.paths.Meta(s.Path)
		dst = append(dst, OriginSpan{From: s.From, To: s.To, Origin: m.Origin, Transit: m.Transit})
	}
	// Full-key comparison: ties must order identically however the spans
	// arrived, or merged timelines would depend on arrival order.
	slices.SortFunc(dst, func(a, b OriginSpan) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		if a.Origin != b.Origin {
			return cmp.Compare(a.Origin, b.Origin)
		}
		if a.Transit != b.Transit {
			return cmp.Compare(a.Transit, b.Transit)
		}
		return cmp.Compare(a.To, b.To)
	})
	n := 0
	for _, s := range dst {
		if n > 0 {
			m := &dst[n-1]
			if m.Origin == s.Origin && m.Transit == s.Transit && s.From <= m.To {
				if s.To > m.To {
					m.To = s.To
				}
				continue
			}
		}
		dst[n] = s
		n++
	}
	return dst[:n]
}

// FirstObserved returns the first day any peer observed p, if ever.
func (ix *Index) FirstObserved(p netx.Prefix) (timex.Day, bool) {
	var first timex.Day
	found := false
	for _, s := range ix.spansOf(p) {
		if !found || s.From < first {
			first, found = s.From, true
		}
	}
	return first, found
}

// AnyOverlapObserved reports whether any announced prefix overlapping p
// (covering it or covered by it) was observed by any peer on day d. This
// is the "is this address space routed" test used for ROA routing status.
func (ix *Index) AnyOverlapObserved(p netx.Prefix, d timex.Day) bool {
	// Covering prefixes: probe each of the <= 33 possible
	// shorter-or-equal lengths directly (p itself at b == Bits()).
	for b := 0; b <= p.Bits(); b++ {
		q := netx.PrefixFrom(p.Addr(), b)
		if sid, ok := ix.sortedID(q); ok && ix.eventCount(sid, d) > 0 {
			return true
		}
	}
	// Covered prefixes: IPv4 prefix ranges are laminar, so every
	// distinct prefix inside p's address range is one contiguous run of
	// sorted starting at p's insertion point. Entries at p.Addr() with
	// shorter length sort before that point and were probed above; the
	// Covers filter only excludes them defensively.
	i, _ := netx.SearchPrefixes(ix.sorted, p)
	last := p.LastAddr()
	for ; i < len(ix.sorted); i++ {
		q := ix.sorted[i]
		if q.Addr() > last {
			break
		}
		if p.Covers(q) && ix.eventCount(uint32(i), d) > 0 {
			return true
		}
	}
	return false
}

// RoutedSpace returns the union of prefixes observed by at least
// minPeers peers on day d.
func (ix *Index) RoutedSpace(d timex.Day, minPeers int) *netx.Set {
	var set netx.Set
	for sid, p := range ix.sorted {
		if int(ix.eventCount(uint32(sid), d)) >= minPeers {
			set.Add(p)
		}
	}
	return &set
}

// MOAS is one multiple-origin-AS conflict: a prefix simultaneously
// originated by more than one AS — the coarse signature hijack detectors
// alarm on.
type MOAS struct {
	Prefix  netx.Prefix
	Origins []bgp.ASN // sorted
}

// MOASConflicts returns the prefixes with more than one origin AS
// observed across peers on day d, in address order.
func (ix *Index) MOASConflicts(d timex.Day) []MOAS {
	var out []MOAS
	// origins collects one prefix's distinct origins; a prefix has a
	// handful of observing peers, so a linear dedup beats a map, and the
	// slice is reused across prefixes.
	var origins []bgp.ASN
	for sid, p := range ix.sorted {
		// A single peer contributes one origin, so fewer than two
		// observing peers cannot conflict: skip without scanning.
		if ix.eventCount(uint32(sid), d) < 2 {
			continue
		}
		origins = origins[:0]
		firstCovering(ix.bucket(uint32(sid)), d, func(s Span) bool {
			if o := ix.paths.Meta(s.Path).Origin; !slices.Contains(origins, o) {
				origins = append(origins, o)
			}
			return true
		})
		if len(origins) < 2 {
			continue
		}
		m := MOAS{Prefix: p, Origins: slices.Clone(origins)}
		slices.Sort(m.Origins)
		out = append(out, m)
	}
	return out
}

// OriginActivity summarizes one origin AS's footprint over the whole
// index: the prefixes it originated, its total originated days, and the
// length of every merged origination span it holds.
type OriginActivity struct {
	Origin         bgp.ASN
	Prefixes       []netx.Prefix // sorted, deduplicated
	OriginatedDays int           // sum of span lengths across prefixes and peers' merged spans
	SpanDays       []int32       // length of each merged span across its prefixes, ascending
}

// ByOrigin aggregates origination activity per origin AS in one sweep:
// each prefix's timeline is derived exactly once, into a scratch buffer
// reused across prefixes. Prefixes are visited in address order, so
// every per-origin prefix list comes out sorted and free of duplicates.
func (ix *Index) ByOrigin() map[bgp.ASN]*OriginActivity {
	out := make(map[bgp.ASN]*OriginActivity)
	var tl []OriginSpan
	for sid, p := range ix.sorted {
		tl = ix.timelineInto(tl, ix.bucket(uint32(sid)))
		for _, span := range tl {
			act := out[span.Origin]
			if act == nil {
				act = &OriginActivity{Origin: span.Origin}
				out[span.Origin] = act
			}
			n := len(act.Prefixes)
			if n == 0 || act.Prefixes[n-1] != p {
				act.Prefixes = append(act.Prefixes, p)
			}
			act.OriginatedDays += int(span.To - span.From)
			act.SpanDays = append(act.SpanDays, int32(span.To-span.From))
		}
	}
	for _, act := range out {
		slices.Sort(act.SpanDays)
	}
	return out
}

// Prefixes returns every prefix ever observed, in address order.
func (ix *Index) Prefixes() []netx.Prefix {
	return append([]netx.Prefix(nil), ix.sorted...)
}
