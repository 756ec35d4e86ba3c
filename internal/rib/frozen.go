package rib

import (
	"fmt"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// Frozen is the flat, position-addressed form of a closed Index: the
// complete query state as plain slices with no maps, pointers into
// other structures, or interner machinery. It exists for snapshot
// layers (internal/ribsnap): every numeric slice can be written as one
// little-endian binary section and — on architectures where the
// in-memory layout matches — adopted straight out of a mapped file
// without copying. Apart from Peers and Paths, whose elements contain
// Go strings and slices and therefore always deserialize by copy, the
// slices are the Index's own storage: callers must treat them as
// read-only.
type Frozen struct {
	Peers    []PeerRef     // global peer table, id order
	Prefixes []netx.Prefix // address-sorted distinct prefixes
	Paths    []bgp.ASPath  // canonical interned paths, PathID order
	Col      []Span        // columnar span store, grouped by sorted-prefix id then peer
	SpanOff  []uint32      // len(Prefixes)+1 offsets into Col
	EvDay    []timex.Day   // per-prefix visibility events: day ...
	EvCount  []int32       // ... and the peer count from that day on
	EvOff    []uint32      // len(Prefixes)+1 offsets into EvDay/EvCount
	// MaxDay is the largest day stamped on any record folded into the
	// index. It rides in the snapshot lineage section (not a core
	// column) and gates the delta-append path: open spans are the ones
	// with To == closeDay+1, which is unambiguous only while
	// MaxDay <= closeDay.
	MaxDay timex.Day
}

// Frozen returns the flat view of a closed index. It errors before
// Close, when the columnar store does not exist yet.
func (ix *Index) Frozen() (*Frozen, error) {
	if !ix.closed {
		return nil, fmt.Errorf("rib: Frozen requires a closed index")
	}
	return &Frozen{
		Peers:    ix.peers,
		Prefixes: ix.sorted,
		Paths:    ix.paths.Paths(),
		Col:      ix.col,
		SpanOff:  ix.spanOff,
		EvDay:    ix.evDay,
		EvCount:  ix.evCount,
		EvOff:    ix.evOff,
		MaxDay:   ix.maxDay,
	}, nil
}

// FromFrozen reconstructs a closed, immutable Index directly over f's
// slices without copying them — f may alias memory-mapped file contents
// that stay valid for the index's lifetime. Only the small lookup
// structures the flat form cannot carry are rebuilt: the peer-id map
// (one entry per peer) and the path interner's per-path metadata. The
// result answers every query exactly as the index Frozen was called on;
// Merge and Load refuse it like any closed index, and Close is a no-op.
func FromFrozen(f *Frozen) (*Index, error) {
	n := len(f.Prefixes)
	if len(f.SpanOff) != n+1 || len(f.EvOff) != n+1 {
		return nil, fmt.Errorf("rib: frozen offset tables sized %d/%d, want %d", len(f.SpanOff), len(f.EvOff), n+1)
	}
	if len(f.EvDay) != len(f.EvCount) {
		return nil, fmt.Errorf("rib: frozen event columns sized %d/%d", len(f.EvDay), len(f.EvCount))
	}
	if n > 0 && (f.SpanOff[0] != 0 || int(f.SpanOff[n]) != len(f.Col) || f.EvOff[0] != 0 || int(f.EvOff[n]) != len(f.EvDay)) {
		return nil, fmt.Errorf("rib: frozen offset tables do not cover their columns")
	}
	ix := &Index{
		peers:   f.Peers,
		peerIDs: make(map[PeerRef]int, len(f.Peers)),
		paths:   bgp.FrozenPathInterner(f.Paths),
		closed:  true,
		sorted:  f.Prefixes,
		col:     f.Col,
		spanOff: f.SpanOff,
		evDay:   f.EvDay,
		evCount: f.EvCount,
		evOff:   f.EvOff,
		maxDay:  f.MaxDay,
	}
	for id, ref := range f.Peers {
		ix.peerIDs[ref] = id
	}
	return ix, nil
}
