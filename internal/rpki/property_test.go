package rpki

import (
	"math/rand"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// TestValidationInvariants checks the RFC 6811 state machine over random
// ROA sets and announcements:
//   - Valid implies some ROA covers the announcement within maxLength
//     with a matching non-zero origin.
//   - Invalid implies some ROA covers the prefix but none matches.
//   - NotFound implies no ROA covers the prefix.
func TestValidationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		var roas []ROA
		for i := rng.Intn(6); i > 0; i-- {
			bits := rng.Intn(25)
			p := netx.PrefixFrom(netx.Addr(rng.Uint32()), bits)
			roa := ROA{
				Prefix:    p,
				MaxLength: bits + rng.Intn(33-bits),
				ASN:       bgp.ASN(rng.Intn(5)), // small space to force matches
				TA:        TARIPE,
			}
			roas = append(roas, roa)
		}
		ann := netx.PrefixFrom(netx.Addr(rng.Uint32()), rng.Intn(33))
		origin := bgp.ASN(rng.Intn(5))
		got := Validate(ann, origin, roas)

		covered, matched := false, false
		for _, r := range roas {
			if !r.Prefix.Covers(ann) {
				continue
			}
			covered = true
			if ann.Bits() <= r.MaxLength && r.ASN == origin && r.ASN != bgp.AS0 {
				matched = true
			}
		}
		want := NotFound
		if matched {
			want = Valid
		} else if covered {
			want = Invalid
		}
		if got != want {
			t.Fatalf("trial %d: Validate(%v, %v) = %v, want %v (covered=%v matched=%v)",
				trial, ann, origin, got, want, covered, matched)
		}
	}
}

// TestArchiveMonotoneSigning: once every covering ROA is revoked, the
// prefix reads unsigned; signing status at any day equals the span
// arithmetic.
func TestArchiveSpanArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	var a Archive
	type span struct {
		roa      ROA
		from, to int32
	}
	var spans []span
	day := int32(1000)
	for i := 0; i < 100; i++ {
		bits := 8 + rng.Intn(9)
		roa := ROA{
			Prefix:    netx.PrefixFrom(netx.Addr(rng.Uint32()), bits),
			MaxLength: bits,
			ASN:       bgp.ASN(100 + i),
			TA:        TARIPE,
		}
		from := day
		day += int32(rng.Intn(3))
		if err := a.Add(timexDay(from), roa); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, span{roa, from, -1})
	}
	// Revoke half, in day order.
	for i := 0; i < 100; i += 2 {
		day += int32(rng.Intn(3))
		if err := a.Revoke(timexDay(day), spans[i].roa); err != nil {
			t.Fatal(err)
		}
		spans[i].to = day
	}

	for probe := int32(990); probe < day+10; probe += 3 {
		for _, s := range spans {
			live := probe >= s.from && (s.to < 0 || probe < s.to)
			got := false
			for _, r := range coveringAt(&a, s.roa.Prefix, timexDay(probe)) {
				if r == s.roa {
					got = true
				}
			}
			if got != live {
				t.Fatalf("probe %d: ROA %v live=%v, archive says %v", probe, s.roa, live, got)
			}
		}
	}
}

func timexDay(d int32) timex.Day { return timex.Day(d) }

// coveringAt returns the ROAs of any trust anchor live on day d whose
// prefix covers p: the archive's span walk, read back without the
// validation on top of it.
func coveringAt(a *Archive, p netx.Prefix, d timex.Day) []ROA {
	var out []ROA
	a.trie.Covering(p, func(_ netx.Prefix, lst []*roaSpan) bool {
		for _, sp := range lst {
			if sp.liveAt(d) {
				out = append(out, sp.roa)
			}
		}
		return true
	})
	return out
}
