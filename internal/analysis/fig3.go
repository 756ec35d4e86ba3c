package analysis

import (
	"sort"

	"dropscope/internal/bgp"
	"dropscope/internal/irr"
	"dropscope/internal/sbl"
)

// Sec5 is the IRR-effectiveness analysis of §5.
type Sec5 struct {
	// CoveredListings counts listings with a route object (exact or more
	// specific) live at some point in the 7 days before listing;
	// CoveredFraction and CoveredSpaceFraction are their share of the
	// DROP population and address space.
	CoveredListings      int
	CoveredFraction      float64
	CoveredSpaceFraction float64
	// CreatedMonthBefore is the fraction of covered listings whose
	// covering object was created within the month before listing;
	// RemovedMonthAfter is the fraction whose object was removed within a
	// month after listing.
	CreatedMonthBefore float64
	RemovedMonthAfter  float64

	// Named-hijack analysis: listings whose SBL record names a hijacking
	// ASN, split by whether a route object carried that ASN.
	NamedHijacks          int
	WithHijackerASNObject int
	WithoutOrDifferent    int
	// DistinctHijackerASNs counts the ASNs appearing in those objects.
	DistinctHijackerASNs int
	// OrgGroups maps ORG-IDs to how many of the hijacker-ASN objects they
	// created; TopOrgsCover is the share of objects from the top 3 orgs.
	OrgGroups    map[string]int
	TopOrgsCover int
	// CommonTransitPrefixes counts prefixes from the largest org whose
	// announcement path shared a common transit AS (AS50509 in the paper),
	// and CommonTransit is that AS.
	CommonTransit         bgp.ASN
	CommonTransitPrefixes int
	// PreexistingIRREntries counts hijacker-object prefixes that also had
	// an older route object from someone else.
	PreexistingIRREntries int
	// UnallocatedWithObject counts route objects registered for prefixes
	// that were unallocated at the time (§5 found 1).
	UnallocatedWithObject int

	// Figure 3: days from route-object creation to first BGP appearance
	// and to DROP listing, for the hijacker-ASN objects. LateCreations
	// counts objects created over a year after announcement began.
	DaysToBGP     []int
	DaysToDROP    []int
	LateCreations int
}

// Sec5IRR computes §5 and the Figure 3 CDF inputs.
func (p *Pipeline) Sec5IRR() Sec5 {
	var out Sec5
	out.OrgGroups = make(map[string]int)
	listings := p.NonIncident()
	// The paper's §5 numbers are over all 712 listings; the AFRINIC
	// incidents count toward coverage (their space dominates), so use the
	// full set for coverage but the non-incident set for hijack analysis.
	all := p.Listings

	var covered []*Listing
	createdMonthBefore, removedMonthAfter := 0, 0
	for _, l := range all {
		spans := p.ds.IRR.RouteHistory(l.Prefix)
		var covering []irr.RouteSpan
		for _, s := range spans {
			// Live at any point within [Added-7, Added].
			endsBefore := s.HasRemoved && s.Removed < l.Added-7
			startsAfter := s.Created > l.Added
			if !endsBefore && !startsAfter {
				covering = append(covering, s)
			}
		}
		if len(covering) == 0 {
			continue
		}
		out.CoveredListings++
		covered = append(covered, l)
		newest := covering[len(covering)-1]
		if l.Added-newest.Created <= 30 {
			createdMonthBefore++
		}
		removed := false
		for _, s := range covering {
			if s.HasRemoved && s.Removed > l.Added && s.Removed-l.Added <= 30 {
				removed = true
			}
		}
		if removed {
			removedMonthAfter++
		}
	}
	if n := len(all); n > 0 {
		out.CoveredFraction = float64(out.CoveredListings) / float64(n)
	}
	if total := addrSpace(all); total > 0 {
		out.CoveredSpaceFraction = float64(addrSpace(covered)) / float64(total)
	}
	if out.CoveredListings > 0 {
		out.CreatedMonthBefore = float64(createdMonthBefore) / float64(out.CoveredListings)
		out.RemovedMonthAfter = float64(removedMonthAfter) / float64(out.CoveredListings)
	}

	// Hijacker-ASN route objects.
	hijackerASNs := make(map[bgp.ASN]bool)
	type orgHit struct {
		l   *Listing
		obj irr.RouteSpan
	}
	orgPrefixes := make(map[string][]orgHit)
	for _, l := range listings {
		if !l.Has(sbl.Hijacked) || len(l.Classification.ASNs) == 0 {
			continue
		}
		out.NamedHijacks++
		named := make(map[bgp.ASN]bool, len(l.Classification.ASNs))
		for _, a := range l.Classification.ASNs {
			named[a] = true
		}
		var match *irr.RouteSpan
		spans := p.ds.IRR.RouteHistory(l.Prefix)
		for i := range spans {
			if named[spans[i].Route.Origin] {
				match = &spans[i]
				break
			}
		}
		if match == nil {
			out.WithoutOrDifferent++
			continue
		}
		out.WithHijackerASNObject++
		hijackerASNs[match.Route.Origin] = true
		org := match.Route.OrgID
		out.OrgGroups[org]++
		orgPrefixes[org] = append(orgPrefixes[org], orgHit{l, *match})

		// Pre-existing entries by someone else.
		for _, s := range spans {
			if s.Created < match.Created && s.Route.Origin != match.Route.Origin {
				out.PreexistingIRREntries++
				break
			}
		}

		// Figure 3 deltas.
		if first, ok := p.Index.FirstObserved(l.Prefix); ok {
			delta := int(first - match.Created)
			if delta < -365 {
				out.LateCreations++
			} else {
				out.DaysToBGP = append(out.DaysToBGP, delta)
				out.DaysToDROP = append(out.DaysToDROP, int(l.Added-match.Created))
			}
		}
	}
	out.DistinctHijackerASNs = len(hijackerASNs)

	// Top-3 org coverage and the common-transit check on the largest org.
	type orgCount struct {
		org string
		n   int
	}
	var ocs []orgCount
	for org, n := range out.OrgGroups {
		ocs = append(ocs, orgCount{org, n})
	}
	sort.Slice(ocs, func(i, j int) bool {
		if ocs[i].n != ocs[j].n {
			return ocs[i].n > ocs[j].n
		}
		return ocs[i].org < ocs[j].org
	})
	for i := 0; i < len(ocs) && i < 3; i++ {
		out.TopOrgsCover += ocs[i].n
	}
	// Look for the org whose prefixes share a single adjacent-to-origin
	// transit across ALL its announcements (the paper's AS50509 finding).
	for _, oc := range ocs {
		var ls []*Listing
		for _, h := range orgPrefixes[oc.org] {
			ls = append(ls, h.l)
		}
		transit, n := p.commonTransit(ls)
		if n == len(ls) && n > out.CommonTransitPrefixes {
			out.CommonTransit, out.CommonTransitPrefixes = transit, n
		}
	}

	// Route objects for unallocated prefixes.
	for _, l := range all {
		if !l.UnallocatedAtListing {
			continue
		}
		for _, s := range p.ds.IRR.RouteHistory(l.Prefix) {
			if p.ds.RIR.UnallocatedAt(s.Route.Prefix, s.Created) {
				out.UnallocatedWithObject++
				break
			}
		}
	}

	sort.Ints(out.DaysToBGP)
	sort.Ints(out.DaysToDROP)
	return out
}

// commonTransit finds the AS (other than the origin) present in every
// listing's announcement path, if any, with the count of paths containing
// it.
func (p *Pipeline) commonTransit(ls []*Listing) (bgp.ASN, int) {
	counts := make(map[bgp.ASN]int)
	for _, l := range ls {
		day := l.Added
		if first, ok := p.Index.FirstObserved(l.Prefix); ok {
			day = first + 1
		}
		path, ok := p.Index.PathAt(l.Prefix, day)
		if !ok {
			path, ok = p.Index.PathAt(l.Prefix, l.Added-1)
			if !ok {
				continue
			}
		}
		origin, _ := path.Origin()
		seen := make(map[bgp.ASN]bool)
		for _, seg := range path {
			for _, a := range seg.ASNs {
				if a != origin && !seen[a] {
					seen[a] = true
					counts[a]++
				}
			}
		}
	}
	var best bgp.ASN
	bestN := 0
	for a, n := range counts {
		// Prefer the highest count; ignore ubiquitous tier-1s by requiring
		// the AS to be adjacent to the origin in at least one path.
		if n > bestN && p.adjacentToOrigin(ls, a) {
			best, bestN = a, n
		}
	}
	return best, bestN
}

func (p *Pipeline) adjacentToOrigin(ls []*Listing, a bgp.ASN) bool {
	for _, l := range ls {
		day := l.Added
		if first, ok := p.Index.FirstObserved(l.Prefix); ok {
			day = first + 1
		}
		path, ok := p.Index.PathAt(l.Prefix, day)
		if !ok || len(path) == 0 {
			continue
		}
		last := path[len(path)-1]
		if last.Type == bgp.SegmentSequence && len(last.ASNs) >= 2 && last.ASNs[len(last.ASNs)-2] == a {
			return true
		}
	}
	return false
}
