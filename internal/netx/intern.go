package netx

// Interner assigns dense uint32 handles to prefixes in first-Intern
// order, so data structures that repeat the same prefixes millions of
// times (per-peer RIB spans, most obviously) can store a 4-byte ID
// instead of the prefix value plus map overhead. The zero value is
// ready to use. An Interner is not safe for concurrent mutation;
// reads of a no-longer-mutated Interner are safe from any
// number of goroutines.
type Interner struct {
	ids      map[Prefix]uint32
	prefixes []Prefix
}

// Intern returns the handle for p, assigning the next dense ID on
// first sight.
func (in *Interner) Intern(p Prefix) uint32 {
	if id, ok := in.ids[p]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[Prefix]uint32)
	}
	id := uint32(len(in.prefixes))
	in.prefixes = append(in.prefixes, p)
	in.ids[p] = id
	return id
}

// At returns the prefix for a handle previously returned by Intern.
func (in *Interner) At(id uint32) Prefix { return in.prefixes[id] }

// Len returns the number of distinct interned prefixes. Handles are
// exactly 0..Len()-1.
func (in *Interner) Len() int { return len(in.prefixes) }
