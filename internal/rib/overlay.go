package rib

import (
	"fmt"
	"sort"

	"dropscope/internal/bgp"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// This file implements the incremental append path: a frozen 1..N index
// plus per-collector overlays replayed from only the appended suffix of
// each archive file, spliced by MergeFrozen into the Frozen a cold
// 1..N+1 build would produce — without re-decoding days 1..N.
//
// The equivalence argument rests on how build() orders the columnar
// store: a stable two-pass counting sort groups spans by sorted-prefix
// id, sub-grouped by ascending peer id, preserving stream order within
// each (prefix, peer) group. A (prefix, peer) group belongs to exactly
// one collector, and a collector's appended records come after all of
// its base records, so the cold 1..N+1 bucket for any group is the base
// bucket's spans (the last one possibly re-closed by a suffix event)
// followed by the suffix-opened spans in suffix order. That is exactly
// what the overlay records and MergeFrozen splices.

// DeltaBase wraps a frozen base index for incremental append. It
// recovers the open-route state a live CollectorRIB would hold at the
// end of the base stream: after Close(baseEnd), a column span is open
// iff To == closeMarker(baseEnd, MaxDay) — unambiguous because every
// genuinely closed span ends at a record day <= MaxDay < marker.
// NewDeltaBase refuses any base for which the merge could not
// reproduce cold output (peer table not grouped by sorted collector);
// callers fall back to a cold rebuild then.
type DeltaBase struct {
	f       *Frozen
	baseEnd timex.Day
	peerIDs map[PeerRef]int32
	blocks  map[string][2]int32 // collector -> [lo, hi) gid block in f.Peers
	names   []string            // sorted collector names present in f.Peers
	open    map[uint64]uint32   // (sid, gid) -> base col index of the span open at baseEnd
}

func deltaKey(sid uint32, gid int32) uint64 {
	return uint64(sid)<<32 | uint64(uint32(gid))
}

// NewDeltaBase prepares f — a Frozen produced by (or equivalent to)
// Index.Frozen after Close(baseEnd) — for overlay replay.
func NewDeltaBase(f *Frozen, baseEnd timex.Day) (*DeltaBase, error) {
	if len(f.SpanOff) != len(f.Prefixes)+1 {
		return nil, fmt.Errorf("rib: delta base span offsets sized %d, want %d", len(f.SpanOff), len(f.Prefixes)+1)
	}
	db := &DeltaBase{
		f:       f,
		baseEnd: baseEnd,
		peerIDs: make(map[PeerRef]int32, len(f.Peers)),
		blocks:  make(map[string][2]int32),
		open:    make(map[uint64]uint32),
	}
	// The base peer table must be one contiguous block per collector, in
	// sorted collector order — the order a cold build registers peers
	// when collectors merge sorted. Anything else cannot be extended to
	// the peer table a cold 1..N+1 build would produce.
	for i := 0; i < len(f.Peers); {
		c := f.Peers[i].Collector
		if len(db.names) > 0 && db.names[len(db.names)-1] >= c {
			return nil, fmt.Errorf("rib: delta base peer table not grouped by sorted collector at %q", c)
		}
		j := i
		for j < len(f.Peers) && f.Peers[j].Collector == c {
			j++
		}
		db.blocks[c] = [2]int32{int32(i), int32(j)}
		db.names = append(db.names, c)
		i = j
	}
	for gid, ref := range f.Peers {
		if _, dup := db.peerIDs[ref]; dup {
			return nil, fmt.Errorf("rib: delta base peer table has duplicate %v", ref)
		}
		db.peerIDs[ref] = int32(gid)
	}
	closeDay := closeMarker(baseEnd, f.MaxDay)
	for sid := range f.Prefixes {
		for i := f.SpanOff[sid]; i < f.SpanOff[sid+1]; i++ {
			if f.Col[i].To == closeDay {
				db.open[deltaKey(uint32(sid), f.Col[i].Peer)] = i
			}
		}
	}
	return db, nil
}

// Overlay replays one collector's appended record suffix against the
// delta base, accumulating exactly the state MergeFrozen needs: new
// spans keyed on base dictionaries (with overlay-local extensions for
// peers and prefixes the base has never seen), and To-edits against
// base column spans that the suffix closed or re-pointed. Apply is
// strict: any record a lenient cold build would skip fails the overlay
// instead, because a skip would make the archive unclean — and a clean
// base snapshot can only be extended by a clean suffix if the result
// is to match a cold rebuild that would itself be persisted.
type Overlay struct {
	db        *DeltaBase
	collector string
	table     []int32 // suffix-local MRT peer index -> peer handle
	newPeers  []PeerRef
	newIDs    map[PeerRef]int32
	prefixes  netx.Interner // overlay-new prefixes, encounter order
	paths     bgp.PathInterner
	spans     []Span            // Prefix/Peer hold base ids or base-count+local ids
	open      map[openKey]int32 // (prefix, peer) -> index+1 of the open overlay span
	edits     map[uint32]timex.Day
	consumed  map[uint64]bool // base open keys already closed by this overlay
	maxDay    timex.Day
}

// NewOverlay starts an overlay for one collector's appended records.
func (db *DeltaBase) NewOverlay(collector string) *Overlay {
	return &Overlay{
		db:        db,
		collector: collector,
		newIDs:    make(map[PeerRef]int32),
		open:      make(map[openKey]int32),
		edits:     make(map[uint32]timex.Day),
		consumed:  make(map[uint64]bool),
	}
}

// Collector returns the collector the overlay replays.
func (ov *Overlay) Collector() string { return ov.collector }

func (ov *Overlay) peerID(ref PeerRef) int32 {
	if gid, ok := ov.db.peerIDs[ref]; ok {
		return gid
	}
	if id, ok := ov.newIDs[ref]; ok {
		return id
	}
	id := int32(len(ov.db.f.Peers) + len(ov.newPeers))
	ov.newPeers = append(ov.newPeers, ref)
	ov.newIDs[ref] = id
	return id
}

func (ov *Overlay) prefixID(p netx.Prefix) uint32 {
	if i, ok := netx.SearchPrefixes(ov.db.f.Prefixes, p); ok {
		return uint32(i)
	}
	return uint32(len(ov.db.f.Prefixes)) + ov.prefixes.Intern(p)
}

// Apply folds one suffix record into the overlay, mirroring
// CollectorRIB.apply exactly. A RIB dump record requires a peer index
// table from the suffix itself (the base snapshot does not retain MRT
// peer tables); an appended UPDATE stream needs none.
func (ov *Overlay) Apply(rec mrt.Record) error {
	switch r := rec.(type) {
	case *mrt.PeerIndexTable:
		table := make([]int32, len(r.Peers))
		for i, p := range r.Peers {
			table[i] = ov.peerID(PeerRef{Collector: ov.collector, Addr: p.Addr, AS: p.AS})
		}
		ov.table = table
	case *mrt.RIBPrefix:
		if ov.table == nil {
			return fmt.Errorf("rib: delta %s: RIB record before a suffix peer index table", ov.collector)
		}
		day := timex.FromTime(r.When)
		if day > ov.maxDay {
			ov.maxDay = day
		}
		pfx := ov.prefixID(r.Prefix)
		for _, e := range r.Entries {
			if int(e.PeerIndex) >= len(ov.table) {
				return fmt.Errorf("rib: delta %s: peer index %d out of range", ov.collector, e.PeerIndex)
			}
			ov.openSpan(pfx, ov.table[e.PeerIndex], day, e.Attrs.Path)
		}
	case *mrt.BGP4MPMessage:
		day := timex.FromTime(r.When)
		if day > ov.maxDay {
			ov.maxDay = day
		}
		pid := ov.peerID(PeerRef{Collector: ov.collector, Addr: r.PeerAddr, AS: r.PeerAS})
		for _, p := range r.Update.Withdrawn {
			ov.closeSpan(ov.prefixID(p), pid, day)
		}
		for _, p := range r.Update.NLRI {
			ov.openSpan(ov.prefixID(p), pid, day, r.Update.Attrs.Path)
		}
	default:
		return fmt.Errorf("rib: delta %s: unsupported record %T", ov.collector, rec)
	}
	return nil
}

// baseOpen returns the base column index of the (pfx, pid) span still
// open at the append boundary, if the key addresses base dictionaries
// and this overlay has not already closed it.
func (ov *Overlay) baseOpen(pfx uint32, pid int32) (uint32, bool) {
	if pfx >= uint32(len(ov.db.f.Prefixes)) || pid >= int32(len(ov.db.f.Peers)) {
		return 0, false
	}
	k := deltaKey(pfx, pid)
	if ov.consumed[k] {
		return 0, false
	}
	ci, ok := ov.db.open[k]
	return ci, ok
}

// editBase closes the base span at column index ci on day, with the
// same From-clamp closeSpan applies.
func (ov *Overlay) editBase(pfx uint32, pid int32, ci uint32, day timex.Day) {
	to := day
	if from := ov.db.f.Col[ci].From; to < from {
		to = from
	}
	ov.edits[ci] = to
	ov.consumed[deltaKey(pfx, pid)] = true
}

func (ov *Overlay) openSpan(pfx uint32, pid int32, day timex.Day, path bgp.ASPath) {
	id := ov.paths.Intern(path)
	k := openKey{prefix: pfx, peer: pid}
	if si := ov.open[k]; si != 0 {
		s := &ov.spans[si-1]
		if s.Path == id {
			return // implicit re-announcement of the same route
		}
		s.To = day
		if s.To < s.From {
			s.To = s.From
		}
	} else if ci, ok := ov.baseOpen(pfx, pid); ok {
		if bgp.PathEqual(path, ov.db.f.Paths[ov.db.f.Col[ci].Path]) {
			return // the open base route continues across the boundary
		}
		ov.editBase(pfx, pid, ci, day) // implicit withdraw of the base route
	}
	ov.spans = append(ov.spans, Span{Prefix: pfx, Peer: pid, From: day, To: openEnd, Path: id})
	ov.open[k] = int32(len(ov.spans))
}

func (ov *Overlay) closeSpan(pfx uint32, pid int32, day timex.Day) {
	k := openKey{prefix: pfx, peer: pid}
	if si := ov.open[k]; si != 0 {
		s := &ov.spans[si-1]
		s.To = day
		if s.To < s.From {
			s.To = s.From
		}
		delete(ov.open, k)
		return
	}
	if ci, ok := ov.baseOpen(pfx, pid); ok {
		ov.editBase(pfx, pid, ci, day)
	}
}

// MergeFrozen splices the base and the per-collector overlays into the
// Frozen a cold build over the full (base + appended suffix) archive
// would produce, closed at newEnd. Overlays must be in sorted collector
// order, each built from db. Untouched prefix buckets copy straight
// across (peer ids remapped, the open-span close marker slid from the
// base's to the merged one — valid for the event columns too, since
// the marker exceeds every base record day and therefore only ever
// marks open-span closes); only buckets the suffix touched recompute
// their events.
//
// The result aliases base storage (peer refs, prefix values, canonical
// paths) — it must be consumed or persisted before any mapping backing
// the base is unmapped.
//
// Path ids are assigned base-table-first, then overlay-new paths in
// sorted collector order; a cold build may interleave them differently,
// but ids are internal handles — every query resolves path content, so
// query and report output are byte-identical either way.
func MergeFrozen(db *DeltaBase, overlays []*Overlay, newEnd timex.Day) (*Frozen, error) {
	base := db.f
	if newEnd < db.baseEnd {
		return nil, fmt.Errorf("rib: merge close day %d precedes base close day %d", newEnd, db.baseEnd)
	}
	for i, ov := range overlays {
		if ov.db != db {
			return nil, fmt.Errorf("rib: overlay %d built against a different base", i)
		}
		if i > 0 && overlays[i-1].collector >= ov.collector {
			return nil, fmt.Errorf("rib: overlays not in sorted collector order")
		}
	}

	// Merged peer table: for each collector in sorted order, its base
	// block then its overlay-discovered peers in first-appearance order
	// — the registration order of a cold full build. The base-gid remap
	// is strictly increasing, so peer-sorted base buckets stay sorted.
	ovByName := make(map[string]int, len(overlays))
	names := append([]string(nil), db.names...)
	for oi, ov := range overlays {
		ovByName[ov.collector] = oi
		if _, ok := db.blocks[ov.collector]; !ok {
			names = append(names, ov.collector)
		}
	}
	sort.Strings(names)
	baseN := len(base.Peers)
	mergedPeers := make([]PeerRef, 0, baseN)
	gidRemap := make([]int32, baseN)
	newPeerRemap := make([][]int32, len(overlays))
	for _, name := range names {
		if blk, ok := db.blocks[name]; ok {
			for g := blk[0]; g < blk[1]; g++ {
				gidRemap[g] = int32(len(mergedPeers))
				mergedPeers = append(mergedPeers, base.Peers[g])
			}
		}
		if oi, ok := ovByName[name]; ok {
			ov := overlays[oi]
			r := make([]int32, len(ov.newPeers))
			for i, ref := range ov.newPeers {
				r[i] = int32(len(mergedPeers))
				mergedPeers = append(mergedPeers, ref)
			}
			newPeerRemap[oi] = r
		}
	}

	// Merged prefix column: the base's sorted prefixes two-pointer-merged
	// with the overlays' new prefixes (deduplicated across overlays,
	// disjoint from the base by construction).
	var gnew netx.Interner
	localNew := make([][]uint32, len(overlays))
	for oi, ov := range overlays {
		r := make([]uint32, ov.prefixes.Len())
		for i := range r {
			r[i] = gnew.Intern(ov.prefixes.At(uint32(i)))
		}
		localNew[oi] = r
	}
	nn := gnew.Len()
	idx := make([]uint32, nn)
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		return gnew.At(idx[i]).Compare(gnew.At(idx[j])) < 0
	})
	baseP := base.Prefixes
	nm := len(baseP) + nn
	mergedPrefixes := make([]netx.Prefix, 0, nm)
	baseSidRemap := make([]uint32, len(baseP))
	newSidRemap := make([]uint32, nn)
	srcBase := make([]int32, 0, nm) // merged sid -> base sid, or -1
	bi, ni := 0, 0
	for bi < len(baseP) || ni < nn {
		takeNew := bi >= len(baseP) ||
			(ni < nn && gnew.At(idx[ni]).Compare(baseP[bi]) < 0)
		if takeNew {
			newSidRemap[idx[ni]] = uint32(len(mergedPrefixes))
			mergedPrefixes = append(mergedPrefixes, gnew.At(idx[ni]))
			srcBase = append(srcBase, -1)
			ni++
		} else {
			baseSidRemap[bi] = uint32(len(mergedPrefixes))
			mergedPrefixes = append(mergedPrefixes, baseP[bi])
			srcBase = append(srcBase, int32(bi))
			bi++
		}
	}

	// Merged path table: base ids preserved, overlay-new paths appended
	// deduplicated in sorted collector order.
	var pin bgp.PathInterner
	for _, p := range base.Paths {
		pin.InternShared(p)
	}
	if pin.Len() != len(base.Paths) {
		return nil, fmt.Errorf("rib: delta base path table not canonical")
	}
	pathRemap := make([][]bgp.PathID, len(overlays))
	for oi, ov := range overlays {
		r := make([]bgp.PathID, ov.paths.Len())
		for i := range r {
			r[i] = pin.InternShared(ov.paths.Path(bgp.PathID(i)))
		}
		pathRemap[oi] = r
	}

	// Edits against base column spans, and which base buckets they touch.
	edits := make(map[uint32]timex.Day)
	touched := make(map[uint32]bool)
	for _, ov := range overlays {
		for ci, to := range ov.edits {
			edits[ci] = to
			sid := uint32(sort.Search(len(baseP), func(i int) bool { return base.SpanOff[i+1] > ci }))
			touched[sid] = true
		}
	}

	// Close markers: a base span is open iff To == baseClose; the merged
	// index stamps its open spans newClose, exactly as a cold
	// Close(newEnd) over the full stream would. Both are computed with
	// the max-of-day rule (see closeMarker), so genuine closes — which
	// end at record days <= the respective MaxDay — never collide.
	maxDay := base.MaxDay
	for _, ov := range overlays {
		if ov.maxDay > maxDay {
			maxDay = ov.maxDay
		}
	}
	baseClose := closeMarker(db.baseEnd, base.MaxDay)
	newClose := closeMarker(newEnd, maxDay)

	// Overlay spans translated onto merged ids, bucketed by merged sid.
	// Per (sid, peer) group all spans come from one overlay in stream
	// order; appending overlays in sorted order keeps that order.
	perSid := make(map[uint32][]Span)
	totalOverlay := 0
	for oi, ov := range overlays {
		totalOverlay += len(ov.spans)
		for _, s := range ov.spans {
			ms := s
			if s.Prefix < uint32(len(baseP)) {
				ms.Prefix = baseSidRemap[s.Prefix]
			} else {
				ms.Prefix = newSidRemap[localNew[oi][s.Prefix-uint32(len(baseP))]]
			}
			if s.Peer < int32(baseN) {
				ms.Peer = gidRemap[s.Peer]
			} else {
				ms.Peer = newPeerRemap[oi][s.Peer-int32(baseN)]
			}
			if s.To == openEnd {
				ms.To = newClose
			}
			ms.Path = pathRemap[oi][s.Path]
			perSid[ms.Prefix] = append(perSid[ms.Prefix], ms)
		}
	}

	col := make([]Span, 0, len(base.Col)+totalOverlay)
	spanOff := make([]uint32, 1, nm+1)
	evDay := make([]timex.Day, 0, len(base.EvDay))
	evCount := make([]int32, 0, len(base.EvCount))
	evOff := make([]uint32, 1, nm+1)
	var sc evScratch
	var bucket []Span
	for m := 0; m < nm; m++ {
		bs := srcBase[m]
		ovs := perSid[uint32(m)]
		if bs >= 0 && len(ovs) == 0 && !touched[uint32(bs)] {
			// Untouched base bucket: copy, remapping ids and sliding the
			// open-span close day.
			for i := base.SpanOff[bs]; i < base.SpanOff[bs+1]; i++ {
				s := base.Col[i]
				s.Prefix = uint32(m)
				s.Peer = gidRemap[s.Peer]
				if s.To == baseClose {
					s.To = newClose
				}
				col = append(col, s)
			}
			for i := base.EvOff[bs]; i < base.EvOff[bs+1]; i++ {
				d := base.EvDay[i]
				if d == baseClose {
					d = newClose
				}
				evDay = append(evDay, d)
				evCount = append(evCount, base.EvCount[i])
			}
		} else {
			bucket = bucket[:0]
			if bs >= 0 {
				for i := base.SpanOff[bs]; i < base.SpanOff[bs+1]; i++ {
					s := base.Col[i]
					s.Prefix = uint32(m)
					s.Peer = gidRemap[s.Peer]
					if to, ok := edits[i]; ok {
						s.To = to
					} else if s.To == baseClose {
						s.To = newClose
					}
					bucket = append(bucket, s)
				}
			}
			sort.SliceStable(ovs, func(i, j int) bool { return ovs[i].Peer < ovs[j].Peer })
			// Merge the two peer-sorted halves, base spans first within a
			// peer — their records came first in the collector stream.
			start := len(col)
			i, j := 0, 0
			for i < len(bucket) && j < len(ovs) {
				if bucket[i].Peer <= ovs[j].Peer {
					col = append(col, bucket[i])
					i++
				} else {
					col = append(col, ovs[j])
					j++
				}
			}
			col = append(col, bucket[i:]...)
			col = append(col, ovs[j:]...)
			evDay, evCount = appendPrefixEvents(evDay, evCount, col[start:], &sc)
		}
		spanOff = append(spanOff, uint32(len(col)))
		evOff = append(evOff, uint32(len(evDay)))
	}

	return &Frozen{
		Peers:    mergedPeers,
		Prefixes: mergedPrefixes,
		Paths:    pin.Paths(),
		Col:      col,
		SpanOff:  spanOff,
		EvDay:    evDay,
		EvCount:  evCount,
		EvOff:    evOff,
		MaxDay:   maxDay,
	}, nil
}

// ConcatFrozen reassembles prefix-range shards (FrozenShards output, or
// shard snapshots decoded back) into one monolithic Frozen — the form
// NewDeltaBase needs. Shards must arrive in ascending prefix order and
// share one global peer table. Per-shard path tables re-unify by
// content; the resulting ids can differ from the pre-cut monolith's,
// which queries never observe. The result aliases shard storage.
func ConcatFrozen(shards []*Frozen) (*Frozen, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("rib: concat of zero shards")
	}
	if len(shards) == 1 {
		return shards[0], nil
	}
	out := &Frozen{Peers: shards[0].Peers}
	var pin bgp.PathInterner
	out.SpanOff = append(out.SpanOff, 0)
	out.EvOff = append(out.EvOff, 0)
	for si, sh := range shards {
		if len(sh.Peers) != len(out.Peers) {
			return nil, fmt.Errorf("rib: shard %d peer table sized %d, want %d", si, len(sh.Peers), len(out.Peers))
		}
		for i, ref := range sh.Peers {
			if ref != out.Peers[i] {
				return nil, fmt.Errorf("rib: shard %d peer table diverges at %d", si, i)
			}
		}
		if len(sh.SpanOff) != len(sh.Prefixes)+1 || len(sh.EvOff) != len(sh.Prefixes)+1 {
			return nil, fmt.Errorf("rib: shard %d offset tables malformed", si)
		}
		if n := len(out.Prefixes); n > 0 && len(sh.Prefixes) > 0 &&
			out.Prefixes[n-1].Compare(sh.Prefixes[0]) >= 0 {
			return nil, fmt.Errorf("rib: shard %d prefixes out of order", si)
		}
		pr := make([]bgp.PathID, len(sh.Paths))
		for i, p := range sh.Paths {
			pr[i] = pin.InternShared(p)
		}
		sidBase := uint32(len(out.Prefixes))
		colBase := uint32(len(out.Col))
		evBase := uint32(len(out.EvDay))
		out.Prefixes = append(out.Prefixes, sh.Prefixes...)
		for _, s := range sh.Col {
			s.Prefix += sidBase
			s.Path = pr[s.Path]
			out.Col = append(out.Col, s)
		}
		for _, off := range sh.SpanOff[1:] {
			out.SpanOff = append(out.SpanOff, off+colBase)
		}
		out.EvDay = append(out.EvDay, sh.EvDay...)
		out.EvCount = append(out.EvCount, sh.EvCount...)
		for _, off := range sh.EvOff[1:] {
			out.EvOff = append(out.EvOff, off+evBase)
		}
		if sh.MaxDay > out.MaxDay {
			out.MaxDay = sh.MaxDay
		}
	}
	out.Paths = pin.Paths()
	return out, nil
}
