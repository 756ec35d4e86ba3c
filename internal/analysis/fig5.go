package analysis

import (
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/timex"
)

// Fig5Sample is one point of the Figure-5 time series.
type Fig5Sample struct {
	Day timex.Day
	// ROASpace is the address space covered by production-TAL non-AS0
	// ROAs; RoutedROASpace is the part overlapping routed space.
	ROASpace       uint64
	RoutedROASpace uint64
	// SignedUnrouted is ROASpace that overlaps no routed announcement
	// (the non-AS0 hijackable surface).
	SignedUnrouted uint64
	// AllocatedUnroutedNoROA is allocated space neither routed nor signed.
	AllocatedUnroutedNoROA uint64
}

// PercentRouted returns the share of signed space that is routed.
func (s Fig5Sample) PercentRouted() float64 {
	if s.ROASpace == 0 {
		return 0
	}
	return float64(s.RoutedROASpace) / float64(s.ROASpace)
}

// Fig5 is the ROA routing-status series plus end-of-window breakdowns.
type Fig5 struct {
	Samples []Fig5Sample
	// UnroutedNoROAByRIR breaks the final sample's allocated-unrouted-
	// unsigned space down by registry (the paper: ARIN holds 60.8%).
	UnroutedNoROAByRIR map[rirstats.RIR]uint64
	// TopSignedUnroutedHoldings lists the largest signed-but-unrouted
	// holdings (by signing ASN) at window end — the paper's Amazon /
	// Prudential / Alibaba observation.
	TopSignedUnroutedHoldings []Holding
}

// Holding aggregates signed-unrouted space by the authorized ASN.
type Holding struct {
	ASN   bgp.ASN
	Space uint64
}

// Fig5ROAStatus sweeps the window monthly, classifying signed and
// allocated space by routing status.
func (p *Pipeline) Fig5ROAStatus() Fig5 {
	out := Fig5{UnroutedNoROAByRIR: make(map[rirstats.RIR]uint64)}
	const step = 30

	for d := p.ds.Window.First; d <= p.ds.Window.Last; d += step {
		out.Samples = append(out.Samples, p.fig5Sample(d))
	}
	if last := out.Samples[len(out.Samples)-1].Day; last != p.ds.Window.Last {
		out.Samples = append(out.Samples, p.fig5Sample(p.ds.Window.Last))
	}

	// End-of-window breakdowns.
	end := p.ds.Window.Last
	routed := p.RoutedSpaceAt(end, 1)
	p.ds.RIR.EachAt(end, func(blk netx.Prefix, registry rirstats.RIR, st rirstats.Status) {
		if allocated(st) && !routed.Overlaps(blk) && !p.ds.RPKI.SignedAt(blk, end) {
			out.UnroutedNoROAByRIR[registry] += blk.NumAddrs()
		}
	})

	holdings := make(map[bgp.ASN]uint64)
	for _, roa := range p.ds.RPKI.LiveAt(end, rpki.DefaultTALs) {
		if roa.ASN == bgp.AS0 || routed.Overlaps(roa.Prefix) {
			continue
		}
		holdings[roa.ASN] += roa.Prefix.NumAddrs()
	}
	for asn, space := range holdings {
		out.TopSignedUnroutedHoldings = append(out.TopSignedUnroutedHoldings, Holding{asn, space})
	}
	sortHoldings(out.TopSignedUnroutedHoldings)
	if len(out.TopSignedUnroutedHoldings) > 5 {
		out.TopSignedUnroutedHoldings = out.TopSignedUnroutedHoldings[:5]
	}
	return out
}

func sortHoldings(hs []Holding) {
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0 && (hs[j].Space > hs[j-1].Space || (hs[j].Space == hs[j-1].Space && hs[j].ASN < hs[j-1].ASN)); j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
}

func (p *Pipeline) fig5Sample(d timex.Day) Fig5Sample {
	s := Fig5Sample{Day: d}
	routed := p.RoutedSpaceAt(d, 1)

	// LiveAt is in prefix order, so both filtered lists are sorted.
	var signed, signedRouted []netx.Prefix
	for _, roa := range p.ds.RPKI.LiveAt(d, rpki.DefaultTALs) {
		if roa.ASN == bgp.AS0 {
			continue
		}
		signed = append(signed, roa.Prefix)
		if routed.Overlaps(roa.Prefix) {
			signedRouted = append(signedRouted, roa.Prefix)
		}
	}
	s.ROASpace = netx.NewSortedSet(signed).AddrCount()
	s.RoutedROASpace = netx.NewSortedSet(signedRouted).AddrCount()
	s.SignedUnrouted = s.ROASpace - s.RoutedROASpace

	p.ds.RIR.EachAt(d, func(blk netx.Prefix, _ rirstats.RIR, st rirstats.Status) {
		if allocated(st) && !routed.Overlaps(blk) && !p.ds.RPKI.SignedAt(blk, d) {
			s.AllocatedUnroutedNoROA += blk.NumAddrs()
		}
	})
	return s
}

// allocated reports whether an RIR block in status st is held by an
// organization: allocated or assigned.
func allocated(st rirstats.Status) bool {
	return st == rirstats.Allocated || st == rirstats.Assigned
}
