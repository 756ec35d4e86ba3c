// Package netx provides IPv4 prefix arithmetic for routing analysis:
// a compact Prefix value type, parsing and formatting, containment tests,
// a Patricia trie keyed by prefix, and prefix sets that account address
// space in /8 equivalents the way the paper reports it.
package netx

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Addr is an IPv4 address held as a big-endian 32-bit integer.
type Addr uint32

// AddrFrom4 assembles an Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String renders a in dotted-quad form.
func (a Addr) String() string {
	o1, o2, o3, o4 := a.Octets()
	// Hand-rolled to avoid fmt allocation in hot paths.
	var b [15]byte
	s := strconv.AppendUint(b[:0], uint64(o1), 10)
	s = append(s, '.')
	s = strconv.AppendUint(s, uint64(o2), 10)
	s = append(s, '.')
	s = strconv.AppendUint(s, uint64(o3), 10)
	s = append(s, '.')
	s = strconv.AppendUint(s, uint64(o4), 10)
	return string(s)
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return parseAddr(s) }

// ParseAddrBytes is ParseAddr over a field of a larger buffer, without
// converting it to a string.
func ParseAddrBytes(b []byte) (Addr, error) { return parseAddr(b) }

func parseAddr[S string | []byte](s S) (Addr, error) {
	var a uint32
	part := 0
	val := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if val < 0 {
				val = 0
			}
			val = val*10 + int(c-'0')
			if val > 255 {
				return 0, fmt.Errorf("netx: octet out of range in %q", s)
			}
		case c == '.':
			if val < 0 || part == 3 {
				return 0, fmt.Errorf("netx: malformed address %q", s)
			}
			a = a<<8 | uint32(val)
			val = -1
			part++
		default:
			return 0, fmt.Errorf("netx: invalid character %q in address %q", c, s)
		}
	}
	if part != 3 || val < 0 {
		return 0, fmt.Errorf("netx: malformed address %q", s)
	}
	a = a<<8 | uint32(val)
	return Addr(a), nil
}

// Prefix is an IPv4 CIDR prefix. The zero value is 0.0.0.0/0.
// Prefix is comparable and suitable as a map key.
type Prefix struct {
	addr Addr // masked network address
	bits uint8
}

// ErrBadPrefix reports a malformed prefix string or invalid prefix length.
var ErrBadPrefix = errors.New("netx: invalid prefix")

// PrefixFrom returns the prefix addr/bits with host bits zeroed.
// It panics if bits > 32 — callers construct prefixes from validated input.
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic("netx: prefix length out of range")
	}
	return Prefix{addr & maskOf(bits), uint8(bits)}
}

func maskOf(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// ParsePrefix parses a CIDR string such as "192.0.2.0/24".
// Host bits below the mask must be zero (as in routing data), and the
// length is plain decimal digits: no sign.
func ParsePrefix(s string) (Prefix, error) { return parsePrefix(s) }

// ParsePrefixBytes is ParsePrefix over a field of a larger buffer,
// without converting it to a string.
func ParsePrefixBytes(b []byte) (Prefix, error) { return parsePrefix(b) }

func parsePrefix[S string | []byte](s S) (Prefix, error) {
	slash := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			slash = i
			break
		}
	}
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q missing '/'", ErrBadPrefix, s)
	}
	addr, err := parseAddr(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %v", ErrBadPrefix, err)
	}
	digits, bits := s[slash+1:], 0
	for i := 0; i < len(digits) && bits <= 32; i++ {
		if c := digits[i]; c >= '0' && c <= '9' {
			bits = bits*10 + int(c-'0')
		} else {
			bits = 33
		}
	}
	if len(digits) == 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("%w: bad length in %q", ErrBadPrefix, s)
	}
	if addr&^maskOf(bits) != 0 {
		return Prefix{}, fmt.Errorf("%w: %q has host bits set", ErrBadPrefix, s)
	}
	return Prefix{addr, uint8(bits)}, nil
}

// MustParsePrefix is ParsePrefix for constants in tests and examples;
// it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the network address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// String renders p in CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Contains reports whether address a falls within p.
func (p Prefix) Contains(a Addr) bool {
	return a&maskOf(int(p.bits)) == p.addr
}

// Covers reports whether p covers q: q is equal to or more specific than p
// and lies within p's address range.
func (p Prefix) Covers(q Prefix) bool {
	return q.bits >= p.bits && q.addr&maskOf(int(p.bits)) == p.addr
}

// Overlaps reports whether p and q share any addresses.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - uint(p.bits))
}

// FirstAddr returns the lowest address in p (the network address).
func (p Prefix) FirstAddr() Addr { return p.addr }

// LastAddr returns the highest address in p.
func (p Prefix) LastAddr() Addr {
	return p.addr | ^maskOf(int(p.bits))
}

// Halves splits p into its two more-specific halves.
// It panics on a /32, which cannot be split.
func (p Prefix) Halves() (lo, hi Prefix) {
	if p.bits == 32 {
		panic("netx: cannot split a /32")
	}
	nb := int(p.bits) + 1
	lo = Prefix{p.addr, uint8(nb)}
	hi = Prefix{p.addr | Addr(1)<<(32-uint(nb)), uint8(nb)}
	return lo, hi
}

// Parent returns the prefix one bit shorter that covers p.
// It panics on a /0.
func (p Prefix) Parent() Prefix {
	if p.bits == 0 {
		panic("netx: /0 has no parent")
	}
	nb := int(p.bits) - 1
	return Prefix{p.addr & maskOf(nb), uint8(nb)}
}

// Compare orders prefixes by address then by length (shorter first).
// It returns -1, 0, or 1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.addr < q.addr:
		return -1
	case p.addr > q.addr:
		return 1
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}

// SortPrefixes sorts prefixes in place by address then length.
func SortPrefixes(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// SearchPrefixes binary-searches ps — which must be sorted as by
// SortPrefixes — for p. It returns the index at which p is (or would be
// inserted) and whether p is present. The search is hand-rolled rather
// than closure-based so callers on allocation-free query paths stay at
// zero allocations.
func SearchPrefixes(ps []Prefix, p Prefix) (int, bool) {
	i, j := 0, len(ps)
	for i < j {
		m := int(uint(i+j) >> 1)
		if ps[m].Compare(p) < 0 {
			i = m + 1
		} else {
			j = m
		}
	}
	return i, i < len(ps) && ps[i] == p
}

// SlashEquivalents expresses n addresses as the equivalent number of
// prefixes of the given length. The paper reports address space as
// "/8 equivalents": SlashEquivalents(n, 8).
func SlashEquivalents(n uint64, bits int) float64 {
	if bits < 0 || bits > 32 {
		panic("netx: prefix length out of range")
	}
	return float64(n) / float64(uint64(1)<<(32-uint(bits)))
}

// MarshalText implements encoding.TextMarshaler.
func (a Addr) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Addr) UnmarshalText(b []byte) error {
	parsed, err := ParseAddrBytes(b)
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler, so Prefix works as a
// JSON value and map key.
func (p Prefix) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Prefix) UnmarshalText(b []byte) error {
	parsed, err := ParsePrefixBytes(b)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
