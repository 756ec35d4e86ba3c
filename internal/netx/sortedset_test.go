package netx

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// setModel is the reference SortedSet is checked against, sharing none
// of its search code: the distinct members in address order, each query
// a linear scan over them, and the union size summed over the merged
// [first, last] address intervals of the members.
type setModel []Prefix

func newSetModel(members []Prefix) setModel {
	m := slices.Clone(members)
	slices.SortFunc(m, Prefix.Compare)
	return slices.Compact(m)
}

func (m setModel) coveredBy(p Prefix) bool {
	return slices.ContainsFunc(m, func(q Prefix) bool { return q.Covers(p) })
}

func (m setModel) overlaps(p Prefix) bool {
	return slices.ContainsFunc(m, func(q Prefix) bool { return q.Overlaps(p) })
}

func (m setModel) membersCoveredBy(p Prefix) []Prefix {
	var out []Prefix
	for _, q := range m {
		if p.Covers(q) {
			out = append(out, q)
		}
	}
	return out
}

func (m setModel) addrCount() uint64 {
	ivs := make([][2]uint64, len(m))
	for i, p := range m {
		ivs[i] = [2]uint64{uint64(p.FirstAddr()), uint64(p.LastAddr())}
	}
	slices.SortFunc(ivs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	var n uint64
	for i := 0; i < len(ivs); {
		first, last := ivs[i][0], ivs[i][1]
		for i++; i < len(ivs) && ivs[i][0] <= last; i++ {
			last = max(last, ivs[i][1])
		}
		n += last - first + 1
	}
	return n
}

// checkSortedSet builds a SortedSet and the model from the same members
// and requires every SortedSet method to answer as the model does, for
// every member and every query.
func checkSortedSet(t *testing.T, members, queries []Prefix) {
	t.Helper()
	model := newSetModel(members)
	sorted := slices.Clone(members)
	SortPrefixes(sorted) // duplicates stay in, for NewSortedSet to drop
	ss := NewSortedSet(sorted)

	if ss.Len() != len(model) {
		t.Fatalf("Len = %d, model's %d (members %v)", ss.Len(), len(model), members)
	}
	if got, want := ss.Prefixes(), []Prefix(model); !slices.Equal(got, want) {
		t.Fatalf("Prefixes = %v, model's %v", got, want)
	}
	if got, want := ss.AddrCount(), model.addrCount(); got != want {
		t.Fatalf("AddrCount = %d, model's %d (members %v)", got, want, members)
	}
	for _, q := range append(slices.Clone(members), queries...) {
		if got, want := ss.Contains(q), slices.Contains(model, q); got != want {
			t.Fatalf("Contains(%v) = %v, model's %v (members %v)", q, got, want, members)
		}
		if got, want := ss.CoveredBy(q), model.coveredBy(q); got != want {
			t.Fatalf("CoveredBy(%v) = %v, model's %v (members %v)", q, got, want, members)
		}
		if got, want := ss.Overlaps(q), model.overlaps(q); got != want {
			t.Fatalf("Overlaps(%v) = %v, model's %v (members %v)", q, got, want, members)
		}
		if got, want := ss.MembersCoveredBy(q), model.membersCoveredBy(q); !slices.Equal(got, want) {
			t.Fatalf("MembersCoveredBy(%v) = %v, model's %v", q, got, want)
		}
	}
}

// TestSortedSetMatchesSet is the differential behind every routed-space
// and address-space answer: over seeded random member sets drawn from a
// small nested pool (duplicates, /0 and /32 included), SortedSet must
// agree with the naive set model on every method.
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

// sortedSetOf is the set of the given prefix strings, in any order.
func sortedSetOf(strs ...string) *SortedSet {
	ps := make([]Prefix, len(strs))
	for i, str := range strs {
		ps[i] = MustParsePrefix(str)
	}
	SortPrefixes(ps)
	return NewSortedSet(ps)
}

func TestSortedSetAddrCountDisjoint(t *testing.T) {
	s := sortedSetOf("10.0.0.0/24", "10.0.1.0/24")
	if got := s.AddrCount(); got != 512 {
		t.Errorf("AddrCount = %d, want 512", got)
	}
}

func TestSortedSetAddrCountOverlap(t *testing.T) {
	s := sortedSetOf(
		"10.0.0.0/8",
		"10.1.0.0/16",    // inside the /8
		"10.1.2.0/24",    // inside both
		"192.0.2.0/24",   // disjoint
		"192.0.2.128/25", // inside previous
	)
	want := uint64(1<<24 + 256)
	if got := s.AddrCount(); got != want {
		t.Errorf("AddrCount = %d, want %d", got, want)
	}
}

// TestSortedSetAddrCountMatchesBitmap verifies union accounting against
// a brute-force per-address bitmap over a confined 16-bit space.
func TestSortedSetAddrCountMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		var ps []Prefix
		seen := make(map[Addr]bool)
		base := AddrFrom4(100, 64, 0, 0)
		for i := 0; i < 30; i++ {
			bits := 18 + rng.Intn(15)
			off := Addr(rng.Uint32() & 0xFFFF) // confine to 100.64.0.0/16
			p := PrefixFrom(base|off, bits)
			ps = append(ps, p)
			for a := p.FirstAddr(); ; a++ {
				seen[a] = true
				if a == p.LastAddr() {
					break
				}
			}
		}
		SortPrefixes(ps)
		if got, want := NewSortedSet(ps).AddrCount(), uint64(len(seen)); got != want {
			t.Fatalf("trial %d: AddrCount = %d, want %d", trial, got, want)
		}
	}
}
