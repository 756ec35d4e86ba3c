package analysis

import (
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/pathend"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
)

// PathEndImpact is the counterfactual for path-end validation (Cohen et
// al.), the §2.3 defense that checks the AS adjacent to the origin: had
// every origin routed at window start signed its then-current neighbors,
// how would the hijack announcements have validated?
type PathEndImpact struct {
	RecordsBuilt int
	// Hijacked listings by path-end outcome of their listing-day path.
	HijacksInvalid  int // caught: neighbor not authorized
	HijacksValid    int // missed: hijacker used an authorized neighbor
	HijacksNotFound int // origin never signed a record (abandoned space)
	HijacksUnrouted int
	// CaseStudyCaught reports whether the RPKI-valid hijack of the case
	// study fails path-end validation (the paper's implicit argument for
	// path security).
	CaseStudyCaught bool
}

// PathEndWithCase builds path-end records from the first 30 days of the
// window — each origin authorizes the neighbors it then used — and
// validates every non-incident hijacked listing's announcement path on
// its listing day. casePrefix is the Figure-4 case-study prefix
// (Fig4.CasePrefix); the case study counts as caught when its path
// fails validation. A zero prefix simply never matches, leaving
// CaseStudyCaught false.
func (p *Pipeline) PathEndWithCase(casePrefix netx.Prefix) PathEndImpact {
	var out PathEndImpact
	table := pathend.NewTable()

	// Enrollment: neighbors observed during the first 30 days.
	start := p.ds.Window.First
	enrolled := make(map[bgp.ASN]map[bgp.ASN]bool)
	for _, pfx := range p.Index.Prefixes() {
		for _, d := range []timex.Day{start, start + 15, start + 30} {
			path, ok := p.Index.PathAt(pfx, d)
			if !ok || len(path) == 0 {
				continue
			}
			origin, ok := path.Origin()
			if !ok {
				continue
			}
			last := path[len(path)-1]
			if last.Type != bgp.SegmentSequence || len(last.ASNs) < 2 {
				continue
			}
			neighbor := last.ASNs[len(last.ASNs)-2]
			if enrolled[origin] == nil {
				enrolled[origin] = make(map[bgp.ASN]bool)
			}
			enrolled[origin][neighbor] = true
		}
	}
	for origin, neighbors := range enrolled {
		rec := pathend.Record{Origin: origin}
		for n := range neighbors {
			rec.Neighbors = append(rec.Neighbors, n)
		}
		if err := table.Add(rec); err == nil {
			out.RecordsBuilt++
		}
	}

	// Validation of hijack announcements.
	for _, l := range p.NonIncident() {
		if !l.Has(sbl.Hijacked) {
			continue
		}
		path, ok := p.Index.PathAt(l.Prefix, l.Added)
		if !ok {
			path, ok = p.Index.PathAt(l.Prefix, l.Added-1)
		}
		if !ok {
			out.HijacksUnrouted++
			continue
		}
		switch table.Validate(path) {
		case pathend.Invalid:
			out.HijacksInvalid++
			if l.Prefix == casePrefix {
				out.CaseStudyCaught = true
			}
		case pathend.Valid:
			out.HijacksValid++
		default:
			out.HijacksNotFound++
		}
	}
	return out
}
