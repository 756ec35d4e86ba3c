package netx

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// checkSortedSet builds a Set and a SortedSet from the same members and
// requires every SortedSet method to answer as Set does, for every
// member and every query.
func checkSortedSet(t *testing.T, members, queries []Prefix) {
	t.Helper()
	var set Set
	for _, p := range members {
		set.Add(p)
	}
	sorted := slices.Clone(members)
	SortPrefixes(sorted) // duplicates stay in, for NewSortedSet to drop
	ss := NewSortedSet(sorted)

	if ss.Len() != set.Len() {
		t.Fatalf("Len = %d, Set's %d (members %v)", ss.Len(), set.Len(), members)
	}
	if got, want := ss.Prefixes(), set.Prefixes(); !slices.Equal(got, want) {
		t.Fatalf("Prefixes = %v, Set's %v", got, want)
	}
	if got, want := ss.AddrCount(), set.AddrCount(); got != want {
		t.Fatalf("AddrCount = %d, Set's %d (members %v)", got, want, members)
	}
	for _, q := range append(slices.Clone(members), queries...) {
		if got, want := ss.Contains(q), set.Contains(q); got != want {
			t.Fatalf("Contains(%v) = %v, Set's %v (members %v)", q, got, want, members)
		}
		if got, want := ss.CoveredBy(q), set.CoveredBy(q); got != want {
			t.Fatalf("CoveredBy(%v) = %v, Set's %v (members %v)", q, got, want, members)
		}
		if got, want := ss.Overlaps(q), set.Overlaps(q); got != want {
			t.Fatalf("Overlaps(%v) = %v, Set's %v (members %v)", q, got, want, members)
		}
		if got, want := ss.MembersCoveredBy(q), set.MembersCoveredBy(q); !slices.Equal(got, want) {
			t.Fatalf("MembersCoveredBy(%v) = %v, Set's %v", q, got, want)
		}
	}
}

// TestSortedSetMatchesSet is the differential behind every routed-space
// answer: over seeded random member sets drawn from a small nested pool
// (duplicates, /0 and /32 included), SortedSet must agree with the trie
// backed Set on every method both have.
func TestSortedSetMatchesSet(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := AddrFrom4(byte(rng.Intn(256)), 0, 0, 0)
		pool := func() Prefix {
			switch rng.Intn(12) {
			case 0:
				return Prefix{}
			case 1:
				return PrefixFrom(base|Addr(rng.Intn(8)), 32)
			}
			return PrefixFrom(base|Addr(rng.Intn(4))<<22|Addr(rng.Intn(4))<<8, rng.Intn(33))
		}
		members := make([]Prefix, rng.Intn(40))
		for i := range members {
			members[i] = pool()
		}
		if len(members) > 0 && rng.Intn(2) == 0 { // a member listed twice
			members = append(members, members[rng.Intn(len(members))])
		}
		queries := make([]Prefix, 60)
		for i := range queries {
			queries[i] = pool()
		}
		checkSortedSet(t, members, queries)
	}
}

func TestNewSortedSetRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSortedSet accepted unsorted input")
		}
	}()
	NewSortedSet([]Prefix{MustParsePrefix("10.0.1.0/24"), MustParsePrefix("10.0.0.0/24")})
}

// FuzzSortedSet decodes members and queries from the input, five bytes
// a prefix (address, then length mod 33): the first byte says how many
// of them are members.
func FuzzSortedSet(f *testing.F) {
	f.Add([]byte{2, 10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 10, 1, 2, 0, 24})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 10, 0, 0, 1, 32, 10, 0, 0, 1, 32, 10, 0, 0, 1, 32})
	f.Add([]byte{1, 192, 0, 2, 0, 24, 192, 0, 2, 255, 32, 192, 0, 3, 0, 24, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nMembers := int(data[0])
		var members, queries []Prefix
		for rest := data[1:]; len(rest) >= 5; rest = rest[5:] {
			p := PrefixFrom(Addr(binary.BigEndian.Uint32(rest)), int(rest[4])%33)
			if len(members) < nMembers {
				members = append(members, p)
			} else {
				queries = append(queries, p)
			}
		}
		checkSortedSet(t, members, queries)
	})
}
