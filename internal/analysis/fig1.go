package analysis

import "dropscope/internal/sbl"

// Fig1Row is one category bar of Figure 1.
type Fig1Row struct {
	Category sbl.Category
	// Exclusive counts prefixes carrying only this label; Additional
	// counts prefixes carrying this label alongside others (the stacked
	// segment in the figure).
	Exclusive  int
	Additional int
	// AddrSpace is the union address space of all prefixes with the label.
	AddrSpace uint64
	// IncidentPrefixes / IncidentSpace isolate the AFRINIC-incident share
	// (the hatched part of the HJ bars).
	IncidentPrefixes int
	IncidentSpace    uint64
}

// Fig1 is the DROP classification breakdown of Figure 1.
type Fig1 struct {
	Rows          []Fig1Row
	TotalPrefixes int
	WithRecord    int
	TotalSpace    uint64
	// OverlapPrefixes counts prefixes with more than one label.
	OverlapPrefixes int
	// IncidentSpaceShare is the AFRINIC incidents' share of DROP space.
	IncidentSpaceShare float64
}

// Fig1Classification categorizes every DROP listing via its SBL record
// (Appendix A) and accounts prefixes and address space per category.
func (p *Pipeline) Fig1Classification() Fig1 {
	var out Fig1
	out.TotalPrefixes = len(p.Listings)

	byCat := make(map[sbl.Category][]*Listing)
	var incident []*Listing
	for _, l := range p.Listings {
		if l.Incident {
			incident = append(incident, l)
		}
		if !l.Has(sbl.NoRecord) {
			out.WithRecord++
		}
		if len(l.Classification.Categories) > 1 {
			out.OverlapPrefixes++
		}
		for _, c := range l.Classification.Categories {
			byCat[c] = append(byCat[c], l)
		}
	}
	out.TotalSpace = addrSpace(p.Listings)
	incidentSpace := addrSpace(incident)
	if out.TotalSpace > 0 {
		out.IncidentSpaceShare = float64(incidentSpace) / float64(out.TotalSpace)
	}

	for _, c := range sbl.Categories() {
		ls := byCat[c]
		row := Fig1Row{Category: c, AddrSpace: addrSpace(ls)}
		for _, l := range ls {
			if len(l.Classification.Categories) == 1 {
				row.Exclusive++
			} else {
				row.Additional++
			}
			if l.Incident {
				row.IncidentPrefixes++
			}
		}
		if c == sbl.Hijacked {
			row.IncidentSpace = incidentSpace
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Table2 summarizes the Appendix-A keyword process over the SBL corpus:
// how many records matched one keyword, several, or none (manual review).
type Table2 struct {
	Records     int
	OneCategory int
	MultiLabel  int
	NeedsReview int
	// WithASN counts records naming at least one malicious ASN.
	WithASN int
}

// Table2SBLBreakdown classifies every listing's SBL record and tallies
// the keyword-match distribution the appendix reports.
func (p *Pipeline) Table2SBLBreakdown() Table2 {
	var out Table2
	for _, l := range p.Listings {
		if l.Has(sbl.NoRecord) {
			continue
		}
		out.Records++
		switch n := len(l.Classification.Categories); {
		case l.Classification.NeedsReview && n == 0:
			out.NeedsReview++
		case n == 1:
			out.OneCategory++
		default:
			out.MultiLabel++
		}
		if len(l.Classification.ASNs) > 0 {
			out.WithASN++
		}
	}
	return out
}
