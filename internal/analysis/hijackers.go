package analysis

import (
	"sort"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// HijackerProfile summarizes one origin AS's behavior the way Testart et
// al.'s serial-hijacker study profiled ASes: how much it originates, how
// long its announcements live, and how much of its footprint lands on
// the blocklist.
type HijackerProfile struct {
	Origin bgp.ASN
	// PrefixCount is the number of distinct prefixes the AS originated in
	// the window; ListedCount is how many of those appeared on DROP.
	PrefixCount int
	ListedCount int
	// MedianSpanDays is the median origination-span length: serial
	// hijackers announce briefly, legitimate operators persistently.
	MedianSpanDays int
	// ListedFraction = ListedCount / PrefixCount.
	ListedFraction float64
}

// SerialHijackers profiles every origin AS and returns the repeat
// offenders of §2.1: at least minPrefixes distinct prefixes, a
// blocklisted share of at least minListedFraction, and a median
// origination span of at most maxMedianSpanDays — brief announcements
// are the discriminating feature Testart et al. identified (legitimate
// operators announce persistently, even when their space is listed).
// Results are sorted by listed count descending.
func (p *Pipeline) SerialHijackers(minPrefixes int, minListedFraction float64, maxMedianSpanDays int) []HijackerProfile {
	listed := make(map[netx.Prefix]bool, len(p.Listings))
	for _, l := range p.Listings {
		listed[l.Prefix] = true
	}

	var out []HijackerProfile
	for origin, act := range p.OriginActivity() {
		if len(act.Prefixes) < minPrefixes {
			continue
		}
		prof := HijackerProfile{Origin: origin, PrefixCount: len(act.Prefixes)}
		for _, pfx := range act.Prefixes {
			if listed[pfx] {
				prof.ListedCount++
			}
		}
		if n := len(act.SpanDays); n > 0 {
			prof.MedianSpanDays = int(act.SpanDays[n/2])
		}
		prof.ListedFraction = float64(prof.ListedCount) / float64(prof.PrefixCount)
		if prof.ListedFraction >= minListedFraction && prof.MedianSpanDays <= maxMedianSpanDays {
			out = append(out, prof)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ListedCount != out[j].ListedCount {
			return out[i].ListedCount > out[j].ListedCount
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// MOASReport counts multiple-origin-AS conflicts over a monthly sweep and
// how many conflicted prefixes were DROP-listed at the time — tying the
// coarse MOAS alarm to ground truth the blocklist provides.
type MOASReport struct {
	Samples []MOASSample
}

// MOASSample is one sweep point.
type MOASSample struct {
	Day       timex.Day
	Conflicts int
	Listed    int
}

// MOASSweep samples MOAS conflicts monthly across the window.
func (p *Pipeline) MOASSweep() MOASReport {
	var out MOASReport
	const step = 30
	for d := p.ds.Window.First; d <= p.ds.Window.Last; d += step {
		s := MOASSample{Day: d}
		for _, m := range p.MOASConflictsAt(d) {
			s.Conflicts++
			if p.ds.DROP.ListedAt(m.Prefix, d) {
				s.Listed++
			}
		}
		out.Samples = append(out.Samples, s)
	}
	return out
}
