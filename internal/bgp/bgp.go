// Package bgp implements the BGP-4 UPDATE message wire format (RFC 4271)
// with 4-byte AS number support (RFC 6793), sufficient to encode and decode
// the announcements carried inside MRT archives: withdrawn routes, the
// standard path attributes, and IPv4 NLRI.
package bgp

import (
	"errors"
	"fmt"

	"dropscope/internal/netx"
)

// ASN is an autonomous system number. AS0 is reserved; in RPKI a ROA for
// AS0 asserts that the covered prefixes must not be routed (RFC 7607/6483).
type ASN uint32

// AS0 is the reserved AS number used in AS0 ROAs.
const AS0 ASN = 0

// String renders the ASN in the canonical "AS64500" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// ParseASN parses an AS number: an optional "AS" prefix in either case,
// then decimal digits no larger than 2³²−1. No sign, no spaces.
func ParseASN(s string) (ASN, error) { return parseASN(s) }

// ParseASNBytes is ParseASN over a field of a larger buffer, without
// converting it to a string.
func ParseASNBytes(b []byte) (ASN, error) { return parseASN(b) }

func parseASN[S string | []byte](s S) (ASN, error) {
	digits := s
	if len(digits) >= 2 && (digits[0] == 'A' || digits[0] == 'a') && (digits[1] == 'S' || digits[1] == 's') {
		digits = digits[2:]
	}
	if len(digits) == 0 {
		return 0, fmt.Errorf("bgp: bad AS number %q", s)
	}
	var n uint64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bgp: bad AS number %q", s)
		}
		if n = n*10 + uint64(c-'0'); n > 1<<32-1 {
			return 0, fmt.Errorf("bgp: AS number %q out of range", s)
		}
	}
	return ASN(n), nil
}

// TypeUpdate is the UPDATE message type code (RFC 4271 §4.1).
const TypeUpdate = 2

// Path attribute type codes used in this pipeline.
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunities     = 8
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// Origin attribute values (RFC 4271 §5.1.1).
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// PathSegment is one segment of an AS_PATH attribute.
type PathSegment struct {
	Type byte // SegmentSet or SegmentSequence
	ASNs []ASN
}

// ASPath is a sequence of path segments. In the common case it is a single
// AS_SEQUENCE segment.
type ASPath []PathSegment

// Sequence builds a single-segment AS_SEQUENCE path.
func Sequence(asns ...ASN) ASPath {
	return ASPath{{Type: SegmentSequence, ASNs: asns}}
}

// Origin returns the origin AS — the last AS of the last AS_SEQUENCE
// segment — and reports whether one exists. A path ending in an AS_SET has
// no unambiguous origin (RFC 6811 treats such routes specially); Origin
// reports false for those.
func (p ASPath) Origin() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	last := p[len(p)-1]
	if last.Type != SegmentSequence || len(last.ASNs) == 0 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}

// First returns the neighbor AS — the first AS of the first segment — and
// reports whether one exists.
func (p ASPath) First() (ASN, bool) {
	if len(p) == 0 || len(p[0].ASNs) == 0 {
		return 0, false
	}
	return p[0].ASNs[0], true
}

// Contains reports whether asn appears anywhere in the path.
func (p ASPath) Contains(asn ASN) bool {
	for _, seg := range p {
		for _, a := range seg.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// Len returns the AS-path length as used in BGP route selection: one per
// AS in a sequence, one per set.
func (p ASPath) Len() int {
	n := 0
	for _, seg := range p {
		if seg.Type == SegmentSet {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// String renders the path as space-separated ASNs, with sets in braces.
func (p ASPath) String() string {
	var b []byte
	for i, seg := range p {
		if i > 0 {
			b = append(b, ' ')
		}
		if seg.Type == SegmentSet {
			b = append(b, '{')
		}
		for j, a := range seg.ASNs {
			if j > 0 {
				if seg.Type == SegmentSet {
					b = append(b, ',')
				} else {
					b = append(b, ' ')
				}
			}
			b = append(b, fmt.Sprintf("%d", uint32(a))...)
		}
		if seg.Type == SegmentSet {
			b = append(b, '}')
		}
	}
	return string(b)
}

// Equal reports whether two paths are identical segment by segment.
func (p ASPath) Equal(q ASPath) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i].Type != q[i].Type || len(p[i].ASNs) != len(q[i].ASNs) {
			return false
		}
		for j := range p[i].ASNs {
			if p[i].ASNs[j] != q[i].ASNs[j] {
				return false
			}
		}
	}
	return true
}

// Attrs is the decoded set of path attributes of an UPDATE.
type Attrs struct {
	Origin      byte
	Path        ASPath
	NextHop     netx.Addr
	HasNextHop  bool
	MED         uint32
	HasMED      bool
	LocalPref   uint32
	HasLocal    bool
	Communities []uint32
}

// Update is a decoded BGP UPDATE message.
type Update struct {
	Withdrawn []netx.Prefix
	Attrs     Attrs
	NLRI      []netx.Prefix
}

// Common decode errors.
var (
	ErrTruncated = errors.New("bgp: truncated message")
	ErrBadMarker = errors.New("bgp: bad message marker")
	ErrBadLength = errors.New("bgp: bad message length")
)

const headerLen = 19

// marker is the 16-byte all-ones header marker required by RFC 4271.
var marker = [16]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// EncodeUpdate serializes u as a full BGP message (header + body) using
// 4-byte AS numbers in AS_PATH, the encoding used by AS4-capable speakers
// and by the MRT AS4 subtypes.
func EncodeUpdate(u *Update) ([]byte, error) {
	body := make([]byte, 0, 64)

	// Withdrawn routes.
	wd := encodePrefixes(nil, u.Withdrawn)
	body = append(body, byte(len(wd)>>8), byte(len(wd)))
	body = append(body, wd...)

	// Path attributes.
	attrs := encodeAttrs(nil, &u.Attrs, len(u.NLRI) > 0)
	body = append(body, byte(len(attrs)>>8), byte(len(attrs)))
	body = append(body, attrs...)

	// NLRI.
	body = encodePrefixes(body, u.NLRI)

	total := headerLen + len(body)
	if total > 4096 {
		return nil, fmt.Errorf("%w: %d bytes exceeds 4096", ErrBadLength, total)
	}
	msg := make([]byte, 0, total)
	msg = append(msg, marker[:]...)
	msg = append(msg, byte(total>>8), byte(total), TypeUpdate)
	msg = append(msg, body...)
	return msg, nil
}

func encodePrefixes(dst []byte, ps []netx.Prefix) []byte {
	for _, p := range ps {
		dst = append(dst, byte(p.Bits()))
		n := (p.Bits() + 7) / 8
		a := uint32(p.Addr())
		for i := 0; i < n; i++ {
			dst = append(dst, byte(a>>(24-8*uint(i))))
		}
	}
	return dst
}

func encodeAttrs(dst []byte, a *Attrs, hasNLRI bool) []byte {
	put := func(flags, code byte, val []byte) {
		if len(val) > 255 {
			flags |= flagExtLen
			dst = append(dst, flags, code, byte(len(val)>>8), byte(len(val)))
		} else {
			dst = append(dst, flags, code, byte(len(val)))
		}
		dst = append(dst, val...)
	}

	if hasNLRI {
		put(flagTransitive, AttrOrigin, []byte{a.Origin})

		var pb []byte
		for _, seg := range a.Path {
			pb = append(pb, seg.Type, byte(len(seg.ASNs)))
			for _, asn := range seg.ASNs {
				pb = append(pb, byte(asn>>24), byte(asn>>16), byte(asn>>8), byte(asn))
			}
		}
		put(flagTransitive, AttrASPath, pb)

		if a.HasNextHop {
			nh := uint32(a.NextHop)
			put(flagTransitive, AttrNextHop, []byte{byte(nh >> 24), byte(nh >> 16), byte(nh >> 8), byte(nh)})
		}
	}
	if a.HasMED {
		put(flagOptional, AttrMED, be32(a.MED))
	}
	if a.HasLocal {
		put(flagTransitive, AttrLocalPref, be32(a.LocalPref))
	}
	if len(a.Communities) > 0 {
		var cb []byte
		for _, c := range a.Communities {
			cb = append(cb, be32(c)...)
		}
		put(flagOptional|flagTransitive, AttrCommunities, cb)
	}
	return dst
}

// EncodeAttrs serializes a bare path-attribute block, the form stored in
// TABLE_DUMP_V2 RIB entries (RFC 6396 §4.3.4).
func EncodeAttrs(a *Attrs) []byte { return encodeAttrs(nil, a, true) }

// DecodeAttrs parses a bare path-attribute block into a. Fields not
// present in the block are left untouched; decoded slices are freshly
// allocated, so the result may be retained indefinitely.
func DecodeAttrs(b []byte, a *Attrs) error { return decodeAttrs(b, a, false) }

// DecodeAttrsReuse parses a bare path-attribute block into a, first
// resetting every field and reusing a's existing Path and Communities
// storage (including per-segment ASN slices). The decoded attributes
// alias that storage, so they are only valid until the next
// DecodeAttrsReuse call on the same Attrs — the pooled decode mode of
// the mrt Reader depends on this to go allocation-free in steady state.
func DecodeAttrsReuse(b []byte, a *Attrs) error { return decodeAttrs(b, a, true) }

func be32(v uint32) []byte {
	return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// DecodeUpdate parses a full BGP message previously produced by
// EncodeUpdate (or by an AS4-capable speaker): header, withdrawn routes,
// path attributes with 4-byte AS_PATH, and NLRI.
func DecodeUpdate(msg []byte) (*Update, error) {
	u := &Update{}
	if err := DecodeUpdateInto(msg, u); err != nil {
		return nil, err
	}
	return u, nil
}

// DecodeUpdateInto decodes a full BGP UPDATE message into u, reusing
// u's existing Withdrawn/NLRI/attribute slice capacity. On a zero
// Update it behaves exactly like DecodeUpdate; on a reused Update the
// decoded slices alias storage from the previous decode and are only
// valid until the next DecodeUpdateInto call.
func DecodeUpdateInto(msg []byte, u *Update) error {
	if len(msg) < headerLen {
		return ErrTruncated
	}
	for i := 0; i < 16; i++ {
		if msg[i] != 0xff {
			return ErrBadMarker
		}
	}
	total := int(msg[16])<<8 | int(msg[17])
	if total != len(msg) {
		return fmt.Errorf("%w: header says %d, have %d", ErrBadLength, total, len(msg))
	}
	if msg[18] != TypeUpdate {
		return fmt.Errorf("bgp: message type %d is not UPDATE", msg[18])
	}
	body := msg[headerLen:]

	// Withdrawn.
	if len(body) < 2 {
		return ErrTruncated
	}
	wdLen := int(body[0])<<8 | int(body[1])
	body = body[2:]
	if len(body) < wdLen {
		return ErrTruncated
	}
	var err error
	u.Withdrawn, err = appendDecodedPrefixes(u.Withdrawn[:0], body[:wdLen])
	if err != nil {
		return err
	}
	body = body[wdLen:]

	// Attributes.
	if len(body) < 2 {
		return ErrTruncated
	}
	atLen := int(body[0])<<8 | int(body[1])
	body = body[2:]
	if len(body) < atLen {
		return ErrTruncated
	}
	if err := decodeAttrs(body[:atLen], &u.Attrs, true); err != nil {
		return err
	}
	body = body[atLen:]

	// NLRI.
	u.NLRI, err = appendDecodedPrefixes(u.NLRI[:0], body)
	return err
}

// appendDecodedPrefixes parses a run of RFC 4271 length-prefixed NLRI
// entries onto out.
func appendDecodedPrefixes(out []netx.Prefix, b []byte) ([]netx.Prefix, error) {
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("bgp: NLRI length %d out of range", bits)
		}
		n := (bits + 7) / 8
		if len(b) < 1+n {
			return nil, ErrTruncated
		}
		var a uint32
		for i := 0; i < n; i++ {
			a |= uint32(b[1+i]) << (24 - 8*uint(i))
		}
		p := netx.PrefixFrom(netx.Addr(a), bits)
		if uint32(p.Addr()) != a {
			return nil, fmt.Errorf("bgp: NLRI %s has host bits set", p)
		}
		out = append(out, p)
		b = b[1+n:]
	}
	return out, nil
}

// decodeAttrs parses the path-attribute block with 4-byte AS_PATH ASNs.
// With reuse set, a is reset first and its Path/Communities storage —
// including the per-segment ASN slices — is recycled in place.
func decodeAttrs(b []byte, a *Attrs, reuse bool) error {
	if reuse {
		*a = Attrs{Path: a.Path[:0], Communities: a.Communities[:0]}
	}
	for len(b) > 0 {
		if len(b) < 3 {
			return ErrTruncated
		}
		flags, code := b[0], b[1]
		var alen, hdr int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return ErrTruncated
			}
			alen, hdr = int(b[2])<<8|int(b[3]), 4
		} else {
			alen, hdr = int(b[2]), 3
		}
		if len(b) < hdr+alen {
			return ErrTruncated
		}
		val := b[hdr : hdr+alen]
		switch code {
		case AttrOrigin:
			if alen != 1 {
				return fmt.Errorf("bgp: ORIGIN length %d", alen)
			}
			a.Origin = val[0]
		case AttrASPath:
			var dst ASPath
			if reuse {
				dst = a.Path[:0]
			}
			path, err := appendASPath(dst, val)
			if err != nil {
				return err
			}
			a.Path = path
		case AttrNextHop:
			if alen != 4 {
				return fmt.Errorf("bgp: NEXT_HOP length %d", alen)
			}
			a.NextHop = netx.Addr(uint32(val[0])<<24 | uint32(val[1])<<16 | uint32(val[2])<<8 | uint32(val[3]))
			a.HasNextHop = true
		case AttrMED:
			if alen != 4 {
				return fmt.Errorf("bgp: MED length %d", alen)
			}
			a.MED = uint32(val[0])<<24 | uint32(val[1])<<16 | uint32(val[2])<<8 | uint32(val[3])
			a.HasMED = true
		case AttrLocalPref:
			if alen != 4 {
				return fmt.Errorf("bgp: LOCAL_PREF length %d", alen)
			}
			a.LocalPref = uint32(val[0])<<24 | uint32(val[1])<<16 | uint32(val[2])<<8 | uint32(val[3])
			a.HasLocal = true
		case AttrCommunities:
			if alen%4 != 0 {
				return fmt.Errorf("bgp: COMMUNITIES length %d", alen)
			}
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities,
					uint32(val[i])<<24|uint32(val[i+1])<<16|uint32(val[i+2])<<8|uint32(val[i+3]))
			}
		default:
			// Unknown optional attributes are tolerated (transit behavior).
			if flags&flagOptional == 0 {
				return fmt.Errorf("bgp: unrecognized well-known attribute %d", code)
			}
		}
		b = b[hdr+alen:]
	}
	return nil
}

// appendASPath decodes segments onto dst. When dst has spare capacity
// from a previous decode, each incoming segment recycles the ASN slice
// parked in its slot, so steady-state re-decoding allocates nothing.
func appendASPath(dst ASPath, b []byte) (ASPath, error) {
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, ErrTruncated
		}
		segType, count := b[0], int(b[1])
		if segType != SegmentSet && segType != SegmentSequence {
			return nil, fmt.Errorf("bgp: AS_PATH segment type %d", segType)
		}
		need := 2 + 4*count
		if len(b) < need {
			return nil, ErrTruncated
		}
		var asns []ASN
		if n := len(dst); n < cap(dst) {
			asns = dst[:n+1][n].ASNs[:0]
		} else {
			asns = make([]ASN, 0, count)
		}
		for i := 0; i < count; i++ {
			off := 2 + 4*i
			asns = append(asns, ASN(uint32(b[off])<<24|uint32(b[off+1])<<16|uint32(b[off+2])<<8|uint32(b[off+3])))
		}
		dst = append(dst, PathSegment{Type: segType, ASNs: asns})
		b = b[need:]
	}
	return dst, nil
}
