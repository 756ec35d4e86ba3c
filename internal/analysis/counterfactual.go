package analysis

import (
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
)

// ROVImpact quantifies how much of the DROP abuse universal route origin
// validation would actually have stopped — the counterfactual behind the
// paper's conclusion that RPKI alone is not enough.
type ROVImpact struct {
	// Hijacked listings by the ROV outcome of the malicious announcement
	// on the listing day, under the default (production) TALs.
	HijacksBlocked   int // Invalid: ROV deployment would have rejected it
	HijacksAccepted  int // Valid: the RPKI-valid hijack class
	HijacksUncovered int // NotFound: no ROA — ROV is silent
	HijacksUnrouted  int // not announced on the listing day

	// Unallocated listings under the default TALs vs. with the RIR AS0
	// TALs loaded.
	SquatsBlockedDefault int
	SquatsBlockedWithAS0 int
	SquatsTotal          int
}

// ROVCounterfactual validates every hijacked and unallocated listing's
// announcement against the ROA archive as of its listing day.
func (p *Pipeline) ROVCounterfactual() ROVImpact {
	var out ROVImpact
	for _, l := range p.NonIncident() {
		origin, routed := p.originAtListing(l)
		switch {
		case l.Has(sbl.Hijacked):
			if !routed {
				out.HijacksUnrouted++
				continue
			}
			switch p.ds.RPKI.ValidateAt(l.Prefix, origin, l.Added, rpki.DefaultTALs) {
			case rpki.Invalid:
				out.HijacksBlocked++
			case rpki.Valid:
				out.HijacksAccepted++
			default:
				out.HijacksUncovered++
			}
		case l.Has(sbl.Unallocated) || l.UnallocatedAtListing:
			out.SquatsTotal++
			if !routed {
				continue
			}
			if p.ds.RPKI.ValidateAt(l.Prefix, origin, l.Added, rpki.DefaultTALs) == rpki.Invalid {
				out.SquatsBlockedDefault++
			}
			if p.ds.RPKI.ValidateAt(l.Prefix, origin, l.Added, rpki.WithAS0TALs) == rpki.Invalid {
				out.SquatsBlockedWithAS0++
			}
		}
	}
	return out
}

// AS0Remediation is the what-if the paper's §6.2.1 argues for: signing
// all unrouted signed space with AS0 instead of a routable ASN.
type AS0Remediation struct {
	// VulnerableSpace is signed-but-unrouted space whose ROA authorizes a
	// routable ASN at window end (forgeable-origin surface).
	VulnerableSpace uint64
	// RemediedByTopN is the space removed if only the N largest holders
	// adopted AS0 (paper: three organizations cover 70.1%).
	RemediedByTop3 uint64
	// UnsignedUnroutedSpace is the remaining surface no ROA can describe
	// until it is signed at all.
	UnsignedUnroutedSpace uint64
}

// AS0WhatIf computes the remediation arithmetic at window end.
func (p *Pipeline) AS0WhatIf() AS0Remediation {
	var out AS0Remediation
	end := p.ds.Window.Last
	routed := p.RoutedSpaceAt(end, 1)

	holdings := make(map[bgp.ASN]uint64)
	for _, roa := range p.ds.RPKI.LiveAt(end, rpki.DefaultTALs) {
		if roa.ASN == bgp.AS0 || routed.Overlaps(roa.Prefix) {
			continue
		}
		out.VulnerableSpace += roa.Prefix.NumAddrs()
		holdings[roa.ASN] += roa.Prefix.NumAddrs()
	}
	var hs []Holding
	for asn, space := range holdings {
		hs = append(hs, Holding{asn, space})
	}
	sortHoldings(hs)
	for i := 0; i < len(hs) && i < 3; i++ {
		out.RemediedByTop3 += hs[i].Space
	}

	p.ds.RIR.EachAt(end, func(blk netx.Prefix, _ rirstats.RIR, st rirstats.Status) {
		if allocated(st) && !routed.Overlaps(blk) && !p.ds.RPKI.SignedAt(blk, end) {
			out.UnsignedUnroutedSpace += blk.NumAddrs()
		}
	})
	return out
}

// MaxLengthAudit quantifies the forged-origin sub-prefix surface the
// paper's §2.3 discusses (Gilad et al.): a ROA whose maxLength exceeds
// its prefix length authorizes sub-prefixes the holder does not announce,
// each hijackable by forging the ROA's origin.
type MaxLengthAudit struct {
	ROAs           int // non-AS0 ROAs under production TALs at window end
	LooseMaxLength int // ROAs with maxLength > prefix length
	// VulnerableLoose counts loose ROAs where some authorized sub-prefix
	// is unannounced (forgeable); Gilad et al. found 84% in 2017.
	VulnerableLoose int
	// ForgeableSpace sums the unannounced authorized space.
	ForgeableSpace uint64
}

// MaxLengthAnalysis audits the live ROAs at window end. A loose ROA is
// forgeable wherever the owner's most specific announcement is shorter
// than the maxLength: the attacker announces a longer authorized
// sub-prefix with the forged origin, which is RPKI-valid and wins the
// longest-prefix match. Space the owner already announces at maxLength is
// safe (the attacker can at best tie).
func (p *Pipeline) MaxLengthAnalysis() MaxLengthAudit {
	var out MaxLengthAudit
	end := p.ds.Window.Last
	routed := p.RoutedSpaceAt(end, 1)
	for _, roa := range p.ds.RPKI.LiveAt(end, rpki.DefaultTALs) {
		if roa.ASN == bgp.AS0 {
			continue
		}
		out.ROAs++
		if roa.MaxLength <= roa.Prefix.Bits() {
			continue
		}
		out.LooseMaxLength++
		var safe []netx.Prefix
		for _, m := range routed.MembersCoveredBy(roa.Prefix) {
			if m.Bits() >= roa.MaxLength {
				safe = append(safe, m)
			}
		}
		forgeable := roa.Prefix.NumAddrs() - netx.NewSortedSet(safe).AddrCount()
		if forgeable > 0 {
			out.VulnerableLoose++
			out.ForgeableSpace += forgeable
		}
	}
	return out
}
