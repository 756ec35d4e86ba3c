package bgp

import (
	"strconv"
	"strings"
	"testing"

	"dropscope/internal/netx"
)

func fuzzSeedUpdate() []byte {
	u := &Update{
		Withdrawn: []netx.Prefix{netx.MustParsePrefix("198.51.100.0/24")},
		Attrs: Attrs{
			Origin: OriginIGP, Path: Sequence(64500, 263692),
			NextHop: netx.AddrFrom4(10, 0, 0, 1), HasNextHop: true,
			Communities: []uint32{64500<<16 | 1},
		},
		NLRI: []netx.Prefix{netx.MustParsePrefix("132.255.0.0/22")},
	}
	wire, _ := EncodeUpdate(u)
	return wire
}

func FuzzDecodeUpdate(f *testing.F) {
	f.Add(fuzzSeedUpdate())
	f.Add([]byte{})
	f.Add(make([]byte, 19))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeUpdate(data)
		if err != nil {
			return
		}
		// Accepted updates must re-encode and re-decode to the same thing.
		wire, err := EncodeUpdate(u)
		if err != nil {
			return // e.g. unknown-attr updates may not re-encode identically
		}
		if _, err := DecodeUpdate(wire); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzParseASN holds the string and byte forms of the AS number parser
// to one answer and one error text, and accepted input to the rule:
// an optional AS prefix in either case, then decimal digits that
// strconv reads as a uint32.
func FuzzParseASN(f *testing.F) {
	for _, seed := range []string{
		"AS64500", "as0", "aS12", "4294967295", "AS4294967296", "ASX", "AS", "",
		"+5", "-1", "0012", "AS 5", "ASAS5", "99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseASN(s)
		ab, errb := ParseASNBytes([]byte(s))
		if ab != a || (err == nil) != (errb == nil) || (err != nil && err.Error() != errb.Error()) {
			t.Fatalf("ParseASN(%q) = %v, %v; ParseASNBytes = %v, %v", s, a, err, ab, errb)
		}
		digits := s
		if len(s) >= 2 && strings.EqualFold(s[:2], "AS") {
			digits = s[2:]
		}
		n, perr := strconv.ParseUint(digits, 10, 32)
		if (perr == nil) != (err == nil) || (perr == nil && ASN(n) != a) {
			t.Fatalf("ParseASN(%q) = %v, %v; strconv reads %q as %d, %v", s, a, err, digits, n, perr)
		}
	})
}
