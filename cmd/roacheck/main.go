// Command roacheck validates an announcement against a ROA snapshot CSV
// (RFC 6811 route origin validation).
//
// Usage:
//
//	roacheck -roas snapshot.csv -prefix 132.255.0.0/22 -origin 263692 [-as0]
//
// Exit status: 0 valid, 1 invalid, 2 not found, 3 error.
package main

import (
	"flag"
	"fmt"
	"os"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rpki"
)

func main() {
	var (
		roasPath = flag.String("roas", "", "ROA snapshot CSV (required)")
		prefix   = flag.String("prefix", "", "announced prefix (required)")
		origin   = flag.String("origin", "", "origin ASN, with or without 'AS' (required)")
		withAS0  = flag.Bool("as0", false, "also honor the APNIC/LACNIC AS0 TALs")
	)
	flag.Parse()
	if *roasPath == "" || *prefix == "" || *origin == "" {
		flag.Usage()
		os.Exit(3)
	}

	f, err := os.Open(*roasPath)
	if err != nil {
		fatal(err)
	}
	roas, err := rpki.ParseSnapshotCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	p, err := netx.ParsePrefix(*prefix)
	if err != nil {
		fatal(err)
	}
	asn, err := bgp.ParseASN(*origin)
	if err != nil {
		fatal(fmt.Errorf("bad origin %q", *origin))
	}

	tals := rpki.DefaultTALs
	if *withAS0 {
		tals = rpki.WithAS0TALs
	}
	allowed := make(map[rpki.TrustAnchor]bool, len(tals))
	for _, ta := range tals {
		allowed[ta] = true
	}
	var candidates []rpki.ROA
	for _, r := range roas {
		if allowed[r.TA] {
			candidates = append(candidates, r)
		}
	}

	v := rpki.Validate(p, asn, candidates)
	fmt.Printf("%s origin AS%d: %s\n", p, uint32(asn), v)
	for _, r := range candidates {
		if r.Prefix.Covers(p) {
			fmt.Printf("  covering ROA: %s\n", r)
		}
	}
	switch v {
	case rpki.Valid:
		os.Exit(0)
	case rpki.Invalid:
		os.Exit(1)
	default:
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roacheck:", err)
	os.Exit(3)
}
