package rpki

import (
	"math/rand"
	"slices"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// TestValidateAtMatchesValidate is the differential behind every
// archive-backed ROV answer, the daemon's included: over seeded random
// ROA journals, Archive.ValidateAt must agree with the linear RFC 6811
// reference Validate run over the ROAs the journal leaves live on the
// day, filtered to the trust anchors asked for. The journals are built
// to hit the edges that matter: nested and overlapping ROA prefixes,
// maxLength equal to, above and below the announced length, AS0 ROAs
// under production and AS0 TALs, duplicate ROAs, and revoke-then-re-add.
// LiveCountAt and SignedAt are checked against the same live set.
func TestValidateAtMatchesValidate(t *testing.T) {
	allTAs := append(append([]TrustAnchor{}, WithAS0TALs...), "unknown")
	talSets := [][]TrustAnchor{DefaultTALs, WithAS0TALs, nil}
	day0 := timex.MustParseDay("2020-01-01")
	var outcomes [3]int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))

		// A nested prefix pool under one /8: every ROA prefix and every
		// announcement is drawn from it, so coverage chains are long.
		base := netx.AddrFrom4(byte(20+seed), 0, 0, 0)
		pool := func() netx.Prefix {
			return netx.PrefixFrom(base|netx.Addr(rng.Intn(4))<<16|netx.Addr(rng.Intn(4))<<8, 8+rng.Intn(25))
		}
		asns := []bgp.ASN{bgp.AS0, 64500, 64501, 64502}

		type event struct {
			day     timex.Day
			created bool
			roa     ROA
		}
		var (
			journal []event
			live    []ROA // the journal's live multiset, for revoke picks
			a       Archive
		)
		day := day0
		for i := 0; i < 80; i++ {
			day += timex.Day(rng.Intn(3)) // same-day events too
			var e event
			switch r := rng.Intn(10); {
			case r < 3 && len(live) > 0: // revoke a live ROA
				k := rng.Intn(len(live))
				e = event{day, false, live[k]}
				live = append(live[:k], live[k+1:]...)
			case r < 4 && len(journal) > 0: // re-add a past ROA, maybe still live
				e = event{day, true, journal[rng.Intn(len(journal))].roa}
				live = append(live, e.roa)
			default:
				p := pool()
				maxLen := p.Bits()
				if rng.Intn(2) == 0 {
					maxLen += rng.Intn(33 - p.Bits())
				}
				e = event{day, true, ROA{p, maxLen, asns[rng.Intn(len(asns))], allTAs[rng.Intn(len(allTAs))]}}
				live = append(live, e.roa)
			}
			var err error
			if e.created {
				err = a.Add(e.day, e.roa)
			} else {
				err = a.Revoke(e.day, e.roa)
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			journal = append(journal, e)
		}

		// liveOn replays the journal through day d: the reference's view
		// of which ROAs are live, independent of the archive's spans.
		liveOn := func(d timex.Day, tals []TrustAnchor) []ROA {
			var out []ROA
			for _, e := range journal {
				if e.day > d {
					break
				}
				if e.created {
					out = append(out, e.roa)
					continue
				}
				for k, r := range out {
					if r == e.roa {
						out = append(out[:k], out[k+1:]...)
						break
					}
				}
			}
			kept := out[:0]
			for _, r := range out {
				if talAllowed(r.TA, tals) {
					kept = append(kept, r)
				}
			}
			return kept
		}

		for q := 0; q < 400; q++ {
			e := journal[rng.Intn(len(journal))]
			var p netx.Prefix
			switch rng.Intn(3) {
			case 0: // the ROA's own prefix or a more-specific of it
				bits := e.roa.Prefix.Bits() + rng.Intn(33-e.roa.Prefix.Bits())
				p = netx.PrefixFrom(e.roa.Prefix.Addr()|netx.Addr(rng.Uint32())>>uint(e.roa.Prefix.Bits()), bits)
			case 1: // the ROA's prefix at maxLength, one past it, one short of it
				bits := e.roa.MaxLength + rng.Intn(3) - 1
				if bits < 0 || bits > 32 {
					bits = e.roa.MaxLength
				}
				p = netx.PrefixFrom(e.roa.Prefix.Addr(), bits)
			default:
				p = pool()
			}
			origin := e.roa.ASN
			if rng.Intn(3) == 0 {
				origin = asns[rng.Intn(len(asns))]
			}
			d := e.day + timex.Day(rng.Intn(3)-1)
			for _, tals := range talSets {
				live := liveOn(d, tals)
				want := Validate(p, origin, live)
				if got := a.ValidateAt(p, origin, d, tals); got != want {
					t.Fatalf("seed %d: ValidateAt(%v, %v, %v, %v) = %v, Validate over the live ROAs = %v",
						seed, p, origin, d, tals, got, want)
				}
				outcomes[want]++
				// The archive's other answers over the same live set.
				if got := a.LiveCountAt(d, tals); got != len(live) {
					t.Fatalf("seed %d: LiveCountAt(%v, %v) = %d, %d ROAs live", seed, d, tals, got, len(live))
				}
				if tals == nil {
					signed := slices.ContainsFunc(live, func(r ROA) bool { return r.Prefix.Covers(p) })
					if got := a.SignedAt(p, d); got != signed {
						t.Fatalf("seed %d: SignedAt(%v, %v) = %v, a live ROA covers it: %v", seed, p, d, got, signed)
					}
				}
			}
		}
	}
	for v, n := range outcomes {
		if n == 0 {
			t.Errorf("no query came out %v: the generator misses a case", Validity(v))
		}
	}
}
