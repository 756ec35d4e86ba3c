package analysis

import (
	"sort"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
)

// PreSignedHijack is one hijacked listing that was RPKI-signed before it
// was blocklisted.
type PreSignedHijack struct {
	Prefix netx.Prefix
	Listed timex.Day
	// AttackerControlledROA is inferred when the ROA's ASN changed in
	// step with the BGP origin before the listing (§6.1 found two such).
	AttackerControlledROA bool
	// RPKIValidHijack is set when the announcement on the listing day
	// validated against the pre-existing ROA — the paper's headline case.
	RPKIValidHijack bool
}

// Fig4Row is one prefix timeline of the Figure-4 case study.
type Fig4Row struct {
	Prefix netx.Prefix
	Spans  []rib.OriginSpan
	Signed bool // covered by a ROA during the hijack
	Listed bool // added to DROP in the window
}

// Fig4 is the §6.1 RPKI-effectiveness analysis.
type Fig4 struct {
	HijackedListings int
	PreSigned        []PreSignedHijack
	// Case study reconstruction around the RPKI-valid hijack.
	CasePrefix     netx.Prefix
	CaseOrigin     bgp.ASN
	CaseTransit    bgp.ASN // the hijacker's transit AS
	Rows           []Fig4Row
	SiblingCount   int
	SiblingsListed int
}

// Fig4RPKIValidHijacks finds hijacked listings that were signed before
// listing, identifies the RPKI-valid hijack, and reconstructs the
// case-study timeline including sibling prefixes announced through the
// same transit with the same spoofed origin.
func (p *Pipeline) Fig4RPKIValidHijacks() Fig4 {
	var out Fig4
	for _, l := range p.NonIncident() {
		if !l.Has(sbl.Hijacked) {
			continue
		}
		out.HijackedListings++
		if !p.ds.RPKI.SignedAt(l.Prefix, l.Added-1) {
			continue
		}
		h := PreSignedHijack{Prefix: l.Prefix, Listed: l.Added}

		// Attacker-controlled ROA: more than one ROA ASN in the two years
		// before listing, tracking the BGP origin.
		hist := p.ds.RPKI.History(l.Prefix)
		asns := make(map[bgp.ASN]bool)
		for _, s := range hist {
			if s.Created <= l.Added && s.Created >= l.Added-730 {
				asns[s.ROA.ASN] = true
			}
		}
		h.AttackerControlledROA = len(asns) > 1

		if origin, ok := p.Index.OriginAt(l.Prefix, l.Added); ok {
			if p.ds.RPKI.ValidateAt(l.Prefix, origin, l.Added, rpki.DefaultTALs) == rpki.Valid {
				h.RPKIValidHijack = !h.AttackerControlledROA
			}
		}
		out.PreSigned = append(out.PreSigned, h)
	}
	sort.Slice(out.PreSigned, func(i, j int) bool {
		return out.PreSigned[i].Prefix.Compare(out.PreSigned[j].Prefix) < 0
	})

	// Case study: take the RPKI-valid hijack (if any) and find siblings:
	// prefixes whose in-window announcements share the same origin and
	// the same penultimate (transit) AS.
	for _, h := range out.PreSigned {
		if !h.RPKIValidHijack {
			continue
		}
		out.CasePrefix = h.Prefix
		tl := p.Index.OriginTimeline(h.Prefix)
		if len(tl) == 0 {
			break
		}
		last := tl[len(tl)-1]
		out.CaseOrigin, out.CaseTransit = last.Origin, last.Transit

		listedSet := make(map[netx.Prefix]bool)
		for _, l := range p.Listings {
			listedSet[l.Prefix] = true
		}
		out.Rows = append(out.Rows, Fig4Row{
			Prefix: h.Prefix, Spans: tl, Signed: true, Listed: true,
		})
		// Candidate siblings are the prefixes the case origin ever
		// announced (the case prefix among them, so the entry exists), in
		// address order; only their transit is left to check.
		for _, pfx := range p.OriginActivity()[out.CaseOrigin].Prefixes {
			if pfx == h.Prefix {
				continue
			}
			spans := p.Index.OriginTimeline(pfx)
			match := false
			for _, s := range spans {
				if s.Origin == out.CaseOrigin && s.Transit == out.CaseTransit {
					match = true
				}
			}
			if !match {
				continue
			}
			out.SiblingCount++
			row := Fig4Row{
				Prefix: pfx, Spans: spans,
				Signed: p.ds.RPKI.SignedAt(pfx, p.ds.Window.Last),
				Listed: listedSet[pfx],
			}
			if row.Listed {
				out.SiblingsListed++
			}
			out.Rows = append(out.Rows, row)
		}
		break
	}
	return out
}
