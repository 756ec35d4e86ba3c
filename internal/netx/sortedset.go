package netx

// SortedSet is an immutable prefix set held as an address-sorted slice,
// for sets that are built once and then only read: a day's routed space,
// the prefixes signed on one day. It answers Set's read queries with
// binary searches and allocates nothing per query, where a Set costs one
// trie node per prefix bit to build. Use Set for sets that are mutated.
//
// IPv4 prefix ranges are laminar: two prefixes are disjoint or one
// covers the other. So a member that covers a query, or overlaps it,
// sorts no later than the query's last address, and whether one exists
// is a comparison against the running maximum of the members' last
// addresses up to that point.
type SortedSet struct {
	ps      []Prefix // sorted as by SortPrefixes, no duplicates
	maxLast []Addr   // maxLast[i] is the largest LastAddr of ps[:i+1]
}

// NewSortedSet returns the set of ps, which must be sorted as by
// SortPrefixes; it panics otherwise. Consecutive duplicates are dropped.
// The set keeps ps: the caller must not modify it afterwards.
func NewSortedSet(ps []Prefix) *SortedSet {
	s := &SortedSet{}
	if len(ps) == 0 {
		return s
	}
	n := 1
	for _, p := range ps[1:] {
		switch c := ps[n-1].Compare(p); {
		case c > 0:
			panic("netx: NewSortedSet input is not sorted")
		case c < 0:
			ps[n] = p
			n++
		}
	}
	s.ps = ps[:n:n]
	s.maxLast = make([]Addr, n)
	var last Addr
	for i, p := range s.ps {
		last = max(last, p.LastAddr())
		s.maxLast[i] = last
	}
	return s
}

// Len returns the number of member prefixes (overlaps not deduplicated).
func (s *SortedSet) Len() int { return len(s.ps) }

// Prefixes returns a copy of the members in address order.
func (s *SortedSet) Prefixes() []Prefix {
	return append(make([]Prefix, 0, len(s.ps)), s.ps...)
}

// Contains reports whether exactly p is a member.
func (s *SortedSet) Contains(p Prefix) bool {
	_, ok := SearchPrefixes(s.ps, p)
	return ok
}

// CoveredBy reports whether p is covered by some member (equal or less
// specific than p). Such a member sorts at or before p.
func (s *SortedSet) CoveredBy(p Prefix) bool {
	i, ok := SearchPrefixes(s.ps, p)
	return ok || i > 0 && s.maxLast[i-1] >= p.LastAddr()
}

// Overlaps reports whether any member shares addresses with p (covers
// it or is covered by it).
func (s *SortedSet) Overlaps(p Prefix) bool {
	i := s.startsAfter(p.LastAddr())
	return i > 0 && s.maxLast[i-1] >= p.FirstAddr()
}

// MembersCoveredBy returns the members equal to or more specific than p,
// in address order: one contiguous run of the set, which the caller
// must not modify.
func (s *SortedSet) MembersCoveredBy(p Prefix) []Prefix {
	i, _ := SearchPrefixes(s.ps, p)
	j := s.startsAfter(p.LastAddr())
	if j == i {
		return nil
	}
	return s.ps[i:j:j]
}

// AddrCount returns the number of addresses in the union of the members.
// A member whose last address is within an earlier member's is covered
// by it and adds nothing.
func (s *SortedSet) AddrCount() uint64 {
	var n uint64
	for i, p := range s.ps {
		if i == 0 || s.maxLast[i-1] < p.LastAddr() {
			n += p.NumAddrs()
		}
	}
	return n
}

// startsAfter returns the number of members whose first address is at
// most a: the index of the first member starting after a.
func (s *SortedSet) startsAfter(a Addr) int {
	i, j := 0, len(s.ps)
	for i < j {
		m := int(uint(i+j) >> 1)
		if s.ps[m].Addr() <= a {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}
