// As0audit quantifies the AS0 attack surface the paper's §6.2 argues
// about: allocated-but-unrouted space whose ROAs authorize a routable ASN
// (hijackable), unrouted unsigned space (also hijackable), and squatted
// free-pool space the RIR AS0 TALs would reject if operators honored
// them.
package main

import (
	"fmt"
	"os"

	"dropscope"
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
)

func main() {
	cfg := dropscope.DefaultConfig()
	cfg.Scale = 256
	study, err := dropscope.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p := study.Pipeline
	ds := p.Dataset()
	end := cfg.Window.Last
	routed := p.Index.RoutedSpace(end, 1)

	var hijackableSigned, hijackableUnsigned uint64
	for _, roa := range ds.RPKI.LiveAt(end, rpki.DefaultTALs) {
		if roa.ASN == bgp.AS0 || routed.Overlaps(roa.Prefix) {
			continue
		}
		hijackableSigned += roa.Prefix.NumAddrs()
		fmt.Printf("signed+unrouted %-20s ROA %-9s -> forgeable origin\n", roa.Prefix, roa.ASN)
	}
	ds.RIR.EachAt(end, func(blk netx.Prefix, _ rirstats.RIR, st rirstats.Status) {
		if (st == rirstats.Allocated || st == rirstats.Assigned) && !routed.Overlaps(blk) && !ds.RPKI.SignedAt(blk, end) {
			hijackableUnsigned += blk.NumAddrs()
		}
	})

	// Squats the AS0 TALs would reject.
	as0TALs := []rpki.TrustAnchor{rpki.TAAPNICAS0, rpki.TALACNICAS0}
	rejected := 0
	for _, pfx := range p.Index.Prefixes() {
		if !p.Index.Observed(pfx, end) {
			continue
		}
		origin, ok := p.Index.OriginAt(pfx, end)
		if !ok {
			continue
		}
		if ds.RPKI.ValidateAt(pfx, origin, end, as0TALs) == rpki.Invalid {
			rejected++
			fmt.Printf("AS0-rejectable   %-20s origin %s (still routed)\n", pfx, origin)
		}
	}

	fmt.Println()
	fmt.Printf("attack surface at %s:\n", end)
	fmt.Printf("  signed, unrouted, non-AS0 ROA: %.4f /8 equivalents\n", netx.SlashEquivalents(hijackableSigned, 8))
	fmt.Printf("  allocated, unrouted, unsigned: %.4f /8 equivalents\n", netx.SlashEquivalents(hijackableUnsigned, 8))
	fmt.Printf("  routed squats the AS0 TALs would reject: %d prefixes\n", rejected)
	fmt.Println("remediation: sign unrouted space with AS0 ROAs; validators should honor RIR AS0 TALs")
}
