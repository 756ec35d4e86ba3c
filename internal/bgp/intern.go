package bgp

// PathID is a dense handle to an interned ASPath.
type PathID uint32

// PathMeta is the per-path metadata the RIB queries need, computed once
// per distinct path at intern time instead of once per span.
type PathMeta struct {
	Origin   ASN // last AS of the last AS_SEQUENCE segment, 0 if none
	Neighbor ASN // first AS of the first segment, 0 if none
	Transit  ASN // second-to-last AS of the last AS_SEQUENCE segment, 0 if none
}

// PathInterner hash-conses AS paths: structurally equal paths map to
// the same dense PathID and a single canonical copy. Collector RIBs
// repeat the same few thousand paths across millions of (prefix, peer)
// spans, so storing a 4-byte PathID per span instead of a segment
// slice removes almost all of the path duplication. The zero value is
// ready to use. A PathInterner is not safe for concurrent mutation;
// lookups against a no-longer-mutated interner are safe from any
// number of goroutines.
type PathInterner struct {
	ids     map[string]PathID
	paths   []ASPath
	meta    []PathMeta
	strs    []string // lazily rendered String() per path; "" = not yet, nil until the first String
	scratch []byte
	frozen  bool // built by FrozenPathInterner: lookup-only, no ids map
}

// appendPathKey serializes p into an unambiguous byte key: per segment
// a type byte, a 4-byte big-endian AS count, then 4 bytes per AS.
func appendPathKey(b []byte, p ASPath) []byte {
	for _, seg := range p {
		n := len(seg.ASNs)
		b = append(b, seg.Type, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		for _, a := range seg.ASNs {
			b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		}
	}
	return b
}

// PathEqual reports whether two AS paths are structurally equal —
// the same comparison interning by key performs, usable across interners
// whose dense ids are not comparable (a frozen base index and a delta
// overlay each intern independently).
func PathEqual(a, b ASPath) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || len(a[i].ASNs) != len(b[i].ASNs) {
			return false
		}
		for j, asn := range a[i].ASNs {
			if asn != b[i].ASNs[j] {
				return false
			}
		}
	}
	return true
}

// Intern returns the PathID for p, storing a deep copy on first sight
// so the caller may keep mutating (or pooling) its own path storage.
func (in *PathInterner) Intern(p ASPath) PathID {
	return in.intern(p, true)
}

// InternShared is Intern without the defensive copy: on first sight the
// interner adopts p itself as the canonical path. Use it when p's
// storage is immutable for the interner's lifetime — a path from a
// materialized record stream the caller keeps, or one freshly built and
// never touched again — to skip the clone on every miss.
func (in *PathInterner) InternShared(p ASPath) PathID {
	return in.intern(p, false)
}

func (in *PathInterner) intern(p ASPath, copy bool) PathID {
	if in.frozen {
		panic("bgp: Intern on a frozen PathInterner")
	}
	in.scratch = appendPathKey(in.scratch[:0], p)
	if id, ok := in.ids[string(in.scratch)]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]PathID)
	}
	id := PathID(len(in.paths))
	stored := p
	if copy {
		stored = clonePath(p)
	}
	in.paths = append(in.paths, stored)
	in.meta = append(in.meta, metaOf(p))
	in.ids[string(in.scratch)] = id
	return id
}

func clonePath(p ASPath) ASPath {
	if p == nil {
		return nil
	}
	out := make(ASPath, len(p))
	for i, seg := range p {
		out[i] = PathSegment{Type: seg.Type, ASNs: append([]ASN(nil), seg.ASNs...)}
	}
	return out
}

func metaOf(p ASPath) PathMeta {
	var m PathMeta
	m.Origin, _ = p.Origin()
	m.Neighbor, _ = p.First()
	if len(p) > 0 {
		last := p[len(p)-1]
		if last.Type == SegmentSequence && len(last.ASNs) >= 2 {
			m.Transit = last.ASNs[len(last.ASNs)-2]
		}
	}
	return m
}

// Path returns the canonical stored path for id. Callers must not
// mutate the result.
func (in *PathInterner) Path(id PathID) ASPath { return in.paths[id] }

// Meta returns the precomputed metadata for id.
func (in *PathInterner) Meta(id PathID) PathMeta { return in.meta[id] }

// String returns the canonical path's String() rendering, computed at
// most once per distinct path. The memoization writes to the interner,
// so String — unlike Path and Meta — is not safe for concurrent use.
func (in *PathInterner) String(id PathID) string {
	if int(id) >= len(in.strs) {
		in.strs = append(in.strs, make([]string, len(in.paths)-len(in.strs))...)
	}
	if in.strs[id] == "" && len(in.paths[id]) > 0 {
		in.strs[id] = in.paths[id].String()
	}
	return in.strs[id]
}

// Len returns the number of distinct interned paths. IDs are exactly
// 0..Len()-1.
func (in *PathInterner) Len() int { return len(in.paths) }

// Paths returns the canonical interned paths in id order: element i is
// Path(PathID(i)). The returned slice and its paths are the interner's
// own storage — callers must not mutate them. Serialization layers use
// this to lay the whole dictionary out flat.
func (in *PathInterner) Paths() []ASPath { return in.paths }

// FrozenPathInterner wraps externally reconstructed canonical paths —
// typically decoded from a snapshot, in their original id order — into
// a lookup-only interner: Path, Meta, String, Len, and Paths work
// exactly as on the interner the paths came from, with the per-path
// metadata recomputed once here. The key map is never built, so Intern
// and InternShared panic; a frozen interner serves closed, immutable
// indexes that never intern again. The interner adopts paths without
// copying.
func FrozenPathInterner(paths []ASPath) *PathInterner {
	in := &PathInterner{
		paths:  paths,
		meta:   make([]PathMeta, len(paths)),
		frozen: true,
	}
	for i, p := range paths {
		in.meta[i] = metaOf(p)
	}
	return in
}
