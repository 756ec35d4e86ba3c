package analysis

import (
	"sync"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// queryCache memoizes the whole-index products that several
// experiments share over the same closed Index: the routed-space set
// (Fig5's sweep plus three end-of-window analyses), the MOAS sweep, and
// the per-origin activity aggregation (Fig 4's sibling candidates, the
// hijacker profiles). An experiment reads these; it never re-derives a
// whole-index product per item. The experiment fan-out runs
// on concurrent goroutines sharing one Pipeline, so each key resolves
// through its own sync.Once — the first caller computes, everyone else
// blocks briefly and shares the result. Cached values are shared and
// must be treated as immutable by callers; every current caller only
// reads them.
type queryCache struct {
	mu     sync.Mutex
	routed map[routedKey]*routedEntry
	moas   map[timex.Day]*moasEntry

	originsOnce sync.Once
	origins     map[bgp.ASN]*rib.OriginActivity
}

type routedKey struct {
	day      timex.Day
	minPeers int
}

type routedEntry struct {
	once sync.Once
	set  *netx.Set
}

type moasEntry struct {
	once sync.Once
	ms   []rib.MOAS
}

// RoutedSpaceAt is Index.RoutedSpace memoized on (day, minPeers). The
// returned set is shared across callers: read it, never Add to it.
func (p *Pipeline) RoutedSpaceAt(d timex.Day, minPeers int) *netx.Set {
	k := routedKey{day: d, minPeers: minPeers}
	p.cache.mu.Lock()
	if p.cache.routed == nil {
		p.cache.routed = make(map[routedKey]*routedEntry)
	}
	e := p.cache.routed[k]
	if e == nil {
		e = &routedEntry{}
		p.cache.routed[k] = e
	}
	p.cache.mu.Unlock()
	e.once.Do(func() { e.set = p.Index.RoutedSpace(d, minPeers) })
	return e.set
}

// MOASConflictsAt is Index.MOASConflicts memoized per day. The returned
// slice is shared across callers and must not be mutated.
func (p *Pipeline) MOASConflictsAt(d timex.Day) []rib.MOAS {
	p.cache.mu.Lock()
	if p.cache.moas == nil {
		p.cache.moas = make(map[timex.Day]*moasEntry)
	}
	e := p.cache.moas[d]
	if e == nil {
		e = &moasEntry{}
		p.cache.moas[d] = e
	}
	p.cache.mu.Unlock()
	e.once.Do(func() { e.ms = p.Index.MOASConflicts(d) })
	return e.ms
}

// OriginActivity is Index.ByOrigin memoized: the run's one sweep over
// every prefix's origination timeline, with each origin's prefixes, day
// sum and sorted span lengths. The returned map and its activities are
// shared across callers and must not be mutated.
func (p *Pipeline) OriginActivity() map[bgp.ASN]*rib.OriginActivity {
	p.cache.originsOnce.Do(func() { p.cache.origins = p.Index.ByOrigin() })
	return p.cache.origins
}
