package netx

// Set is a set of prefixes with address-space accounting. Overlapping
// members are deduplicated at counting time so that AddrCount reports
// the size of the union, the way the paper accounts DROP address space.
// The zero value is an empty set ready to use.
type Set struct {
	t Trie[struct{}]
}

// Add inserts p into the set.
func (s *Set) Add(p Prefix) { s.t.Insert(p, struct{}{}) }

// Remove deletes p from the set, reporting whether it was present.
func (s *Set) Remove(p Prefix) bool { return s.t.Delete(p) }

// Contains reports whether exactly p is a member.
func (s *Set) Contains(p Prefix) bool {
	_, ok := s.t.Get(p)
	return ok
}

// CoveredBy reports whether p is covered by some member (equal or less
// specific than p).
func (s *Set) CoveredBy(p Prefix) bool {
	_, _, ok := s.t.LongestMatch(p)
	return ok
}

// Len returns the number of member prefixes (not deduplicated).
func (s *Set) Len() int { return s.t.Len() }

// Prefixes returns the members in address order.
func (s *Set) Prefixes() []Prefix {
	out := make([]Prefix, 0, s.t.Len())
	s.t.Walk(func(p Prefix, _ struct{}) bool {
		out = append(out, p)
		return true
	})
	return out
}

// AddrCount returns the number of addresses in the union of the members.
func (s *Set) AddrCount() uint64 {
	var n uint64
	var skip Prefix
	var skipping bool
	s.t.Walk(func(p Prefix, _ struct{}) bool {
		// Walk yields shorter prefixes before their more-specifics at the
		// same address, and address order otherwise; any member covered by
		// the last counted prefix contributes nothing new.
		if skipping && skip.Covers(p) {
			return true
		}
		n += p.NumAddrs()
		skip, skipping = p, true
		return true
	})
	return n
}

// SlashEquivalents returns the union size expressed in prefixes of the
// given length, e.g. SlashEquivalents(8) for the paper's "/8 equivalents".
func (s *Set) SlashEquivalents(bits int) float64 {
	return SlashEquivalents(s.AddrCount(), bits)
}

// Overlaps reports whether any member shares addresses with p (covers
// it or is covered by it).
func (s *Set) Overlaps(p Prefix) bool {
	if s.CoveredBy(p) {
		return true
	}
	found := false
	s.t.CoveredBy(p, func(Prefix, struct{}) bool {
		found = true
		return false
	})
	return found
}

// MembersCoveredBy returns the members equal to or more specific than p,
// in address order.
func (s *Set) MembersCoveredBy(p Prefix) []Prefix {
	var out []Prefix
	s.t.CoveredBy(p, func(q Prefix, _ struct{}) bool {
		out = append(out, q)
		return true
	})
	return out
}
