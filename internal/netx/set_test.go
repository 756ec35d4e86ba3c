package netx

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set
	p := MustParsePrefix("192.0.2.0/24")
	s.Add(p)
	if !s.Contains(p) {
		t.Error("Contains after Add")
	}
	if s.Contains(MustParsePrefix("192.0.2.0/25")) {
		t.Error("Contains should be exact")
	}
	if !s.CoveredBy(MustParsePrefix("192.0.2.128/25")) {
		t.Error("CoveredBy should match more specifics of members")
	}
	if !s.Remove(p) || s.Contains(p) {
		t.Error("Remove failed")
	}
}

func TestSetAddrCountDisjoint(t *testing.T) {
	var s Set
	s.Add(MustParsePrefix("10.0.0.0/24"))
	s.Add(MustParsePrefix("10.0.1.0/24"))
	if got := s.AddrCount(); got != 512 {
		t.Errorf("AddrCount = %d, want 512", got)
	}
}

func TestSetAddrCountOverlap(t *testing.T) {
	var s Set
	s.Add(MustParsePrefix("10.0.0.0/8"))
	s.Add(MustParsePrefix("10.1.0.0/16"))    // inside the /8
	s.Add(MustParsePrefix("10.1.2.0/24"))    // inside both
	s.Add(MustParsePrefix("192.0.2.0/24"))   // disjoint
	s.Add(MustParsePrefix("192.0.2.128/25")) // inside previous
	want := uint64(1<<24 + 256)
	if got := s.AddrCount(); got != want {
		t.Errorf("AddrCount = %d, want %d", got, want)
	}
}

func TestSetSlashEquivalents(t *testing.T) {
	var s Set
	s.Add(MustParsePrefix("10.0.0.0/8"))
	s.Add(MustParsePrefix("11.0.0.0/9"))
	if got := s.SlashEquivalents(8); got != 1.5 {
		t.Errorf("SlashEquivalents(8) = %v, want 1.5", got)
	}
}

func TestSetPrefixesSorted(t *testing.T) {
	var s Set
	for _, str := range []string{"203.0.113.0/24", "10.0.0.0/8", "172.16.0.0/12"} {
		s.Add(MustParsePrefix(str))
	}
	ps := s.Prefixes()
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Compare(ps[i]) >= 0 {
			t.Fatalf("Prefixes not sorted: %v", ps)
		}
	}
}

// TestSetAddrCountMatchesBitmap verifies union accounting against a
// brute-force per-address bitmap over a confined 16-bit space.
func TestSetAddrCountMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		var s Set
		seen := make(map[Addr]bool)
		base := AddrFrom4(100, 64, 0, 0)
		for i := 0; i < 30; i++ {
			bits := 18 + rng.Intn(15)
			off := Addr(rng.Uint32() & 0xFFFF) // confine to 100.64.0.0/16
			p := PrefixFrom(base|off, bits)
			s.Add(p)
			for a := p.FirstAddr(); ; a++ {
				seen[a] = true
				if a == p.LastAddr() {
					break
				}
			}
		}
		if got, want := s.AddrCount(), uint64(len(seen)); got != want {
			t.Fatalf("trial %d: AddrCount = %d, want %d", trial, got, want)
		}
	}
}
