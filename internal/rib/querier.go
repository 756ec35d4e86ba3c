package rib

import (
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// Querier is the read-side contract of a closed Index: every query the
// analysis pipeline, the figures, and the serving layer issue against
// the reassembled multi-collector view. Both the single resident Index
// and the prefix-range Sharded fan-out implement it, and the two are
// required to answer byte-identically — the sharding work is a storage
// and residency optimization, never a semantic one.
//
// Point queries (VisibleCount, Observed, VisibleFraction, OriginAt,
// PathAt, PeerObserved) are the serving hot path and must stay
// allocation-free on every implementation; aggregate queries may
// allocate their result.
type Querier interface {
	// Peers returns all peers registered via peer index tables, in
	// registration order. Callers must not mutate the returned slice.
	Peers() []PeerRef
	// NumPeers returns the number of registered peers across all
	// collectors.
	NumPeers() int
	// NumPrefixes returns the number of distinct prefixes ever observed.
	NumPrefixes() int
	// Prefixes returns every prefix ever observed, in address order.
	Prefixes() []netx.Prefix
	// VisibleCount returns how many peers carried an exact route for p
	// on day d.
	VisibleCount(p netx.Prefix, d timex.Day) int
	// VisibleFraction returns the fraction of all registered peers that
	// carried an exact route for p on day d.
	VisibleFraction(p netx.Prefix, d timex.Day) float64
	// Observed reports whether any peer carried an exact route for p on
	// day d.
	Observed(p netx.Prefix, d timex.Day) bool
	// PeerObserved reports whether the specific peer carried an exact
	// route for p on day d.
	PeerObserved(ref PeerRef, p netx.Prefix, d timex.Day) bool
	// PeersObserving returns the peers that carried an exact route for p
	// on day d.
	PeersObserving(p netx.Prefix, d timex.Day) []PeerRef
	// OriginAt returns the plurality origin AS across peers observing p
	// on day d.
	OriginAt(p netx.Prefix, d timex.Day) (bgp.ASN, bool)
	// PathAt returns one observing peer's AS path for p on day d (the
	// lowest-numbered observing peer, for determinism).
	PathAt(p netx.Prefix, d timex.Day) (bgp.ASPath, bool)
	// OriginTimeline merges all peers' spans for p into a deduplicated
	// origination history ordered by start day.
	OriginTimeline(p netx.Prefix) []OriginSpan
	// FirstObserved returns the first day any peer observed p, if ever.
	FirstObserved(p netx.Prefix) (timex.Day, bool)
	// AnyOverlapObserved reports whether any announced prefix
	// overlapping p (covering it or covered by it) was observed by any
	// peer on day d.
	AnyOverlapObserved(p netx.Prefix, d timex.Day) bool
	// RoutedSpace returns the union of prefixes observed by at least
	// minPeers peers on day d, as an immutable address-sorted set: one
	// filter pass over the index, no trie per day.
	RoutedSpace(d timex.Day, minPeers int) *netx.SortedSet
	// MOASConflicts returns the prefixes with more than one origin AS
	// observed across peers on day d, in address order.
	MOASConflicts(d timex.Day) []MOAS
	// ByOrigin aggregates origination activity per origin AS.
	ByOrigin() map[bgp.ASN]*OriginActivity
}

// Compile-time checks: both index forms satisfy the query contract.
var (
	_ Querier = (*Index)(nil)
	_ Querier = (*Sharded)(nil)
)
