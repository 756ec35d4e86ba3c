package analysis

import (
	"sort"

	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/timex"
)

// Fig6Event is one unallocated prefix appearing on DROP.
type Fig6Event struct {
	Day      timex.Day
	Prefix   netx.Prefix
	Registry rirstats.RIR // registry whose free pool holds the space
}

// Fig6 is the unallocated-space timeline of §6.2.2.
type Fig6 struct {
	Events []Fig6Event
	ByRIR  map[rirstats.RIR]int
	// APNICAS0Day / LACNICAS0Day are detected from the RPKI archive as
	// the first day an AS0-TAL ROA appears for each registry.
	APNICAS0Day  timex.Day
	HasAPNICAS0  bool
	LACNICAS0Day timex.Day
	HasLACNICAS0 bool
	// FilterableAtEnd counts routed prefixes on the final day whose
	// announcements the AS0 TALs would have rejected — the paper found
	// every full-table peer still carried ≈30 such prefixes.
	FilterableAtEnd int
}

// Fig6UnallocatedTimeline extracts the unallocated listings and the RIR
// AS0 policy activations.
func (p *Pipeline) Fig6UnallocatedTimeline() Fig6 {
	out := Fig6{ByRIR: make(map[rirstats.RIR]int)}
	for _, l := range p.Listings {
		if !l.UnallocatedAtListing {
			continue
		}
		ev := Fig6Event{Day: l.Added, Prefix: l.Prefix, Registry: l.Registry}
		out.Events = append(out.Events, ev)
		out.ByRIR[l.Registry]++
	}
	sort.Slice(out.Events, func(i, j int) bool {
		if out.Events[i].Day != out.Events[j].Day {
			return out.Events[i].Day < out.Events[j].Day
		}
		return out.Events[i].Prefix.Compare(out.Events[j].Prefix) < 0
	})

	// Policy activation days: first AS0-TAL ROA per registry, found by
	// scanning the window against each AS0 TAL.
	out.APNICAS0Day, out.HasAPNICAS0 = p.firstAS0Day(rpki.TAAPNICAS0)
	out.LACNICAS0Day, out.HasLACNICAS0 = p.firstAS0Day(rpki.TALACNICAS0)

	// Routed-but-AS0-covered prefixes at window end.
	end := p.ds.Window.Last
	as0TALs := []rpki.TrustAnchor{rpki.TAAPNICAS0, rpki.TALACNICAS0}
	for _, pfx := range p.Index.Prefixes() {
		if !p.Index.Observed(pfx, end) {
			continue
		}
		origin, ok := p.Index.OriginAt(pfx, end)
		if !ok {
			continue
		}
		if p.ds.RPKI.ValidateAt(pfx, origin, end, as0TALs) == rpki.Invalid {
			out.FilterableAtEnd++
		}
	}
	return out
}

func (p *Pipeline) firstAS0Day(ta rpki.TrustAnchor) (timex.Day, bool) {
	tals := []rpki.TrustAnchor{ta}
	lo, hi := p.ds.Window.First, p.ds.Window.Last
	if p.ds.RPKI.LiveCountAt(hi, tals) == 0 {
		return 0, false
	}
	// Binary search for the first day with a live AS0-TAL ROA. ROA
	// presence under one TAL is monotone here: policies activate once.
	for lo < hi {
		mid := lo + (hi-lo)/2
		if p.ds.RPKI.LiveCountAt(mid, tals) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// Fig7Sample is one point of the free-pool series.
type Fig7Sample struct {
	Day   timex.Day
	Pools map[rirstats.RIR]uint64
}

// Fig7FreePools sweeps the window monthly, reporting each registry's
// unallocated (available) address space.
func (p *Pipeline) Fig7FreePools() []Fig7Sample {
	var out []Fig7Sample
	const step = 30
	for d := p.ds.Window.First; d <= p.ds.Window.Last; d += step {
		s := Fig7Sample{Day: d, Pools: make(map[rirstats.RIR]uint64)}
		for _, rir := range rirstats.AllRIRs {
			s.Pools[rir] = p.ds.RIR.FreePool(rir, d)
		}
		out = append(out, s)
	}
	return out
}
