package bgp

import (
	"math/rand"
	"strings"
	"testing"

	"dropscope/internal/netx"
)

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []netx.Prefix{netx.MustParsePrefix("198.51.100.0/24")},
		Attrs: Attrs{
			Origin:      OriginIGP,
			Path:        Sequence(64500, 64501, 262144),
			NextHop:     netx.AddrFrom4(203, 0, 113, 1),
			HasNextHop:  true,
			MED:         100,
			HasMED:      true,
			LocalPref:   200,
			HasLocal:    true,
			Communities: []uint32{64500<<16 | 1, 64500<<16 | 2},
		},
		NLRI: []netx.Prefix{
			netx.MustParsePrefix("192.0.2.0/24"),
			netx.MustParsePrefix("10.0.0.0/8"),
			netx.MustParsePrefix("172.20.1.128/25"),
		},
	}
	wire, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Errorf("Withdrawn = %v", got.Withdrawn)
	}
	if !got.Attrs.Path.Equal(u.Attrs.Path) {
		t.Errorf("Path = %v, want %v", got.Attrs.Path, u.Attrs.Path)
	}
	if !got.Attrs.HasNextHop || got.Attrs.NextHop != u.Attrs.NextHop {
		t.Errorf("NextHop = %v", got.Attrs.NextHop)
	}
	if !got.Attrs.HasMED || got.Attrs.MED != 100 || !got.Attrs.HasLocal || got.Attrs.LocalPref != 200 {
		t.Errorf("MED/LocalPref = %+v", got.Attrs)
	}
	if len(got.Attrs.Communities) != 2 {
		t.Errorf("Communities = %v", got.Attrs.Communities)
	}
	if len(got.NLRI) != 3 || got.NLRI[2] != u.NLRI[2] {
		t.Errorf("NLRI = %v", got.NLRI)
	}
}

func TestWithdrawOnlyUpdate(t *testing.T) {
	u := &Update{Withdrawn: []netx.Prefix{netx.MustParsePrefix("192.0.2.0/24")}}
	wire, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NLRI) != 0 || len(got.Withdrawn) != 1 {
		t.Errorf("got %+v", got)
	}
	if len(got.Attrs.Path) != 0 {
		t.Errorf("withdraw-only update should carry no attributes: %+v", got.Attrs)
	}
}

func TestASPathOrigin(t *testing.T) {
	p := Sequence(3356, 21575, 263692)
	if o, ok := p.Origin(); !ok || o != 263692 {
		t.Errorf("Origin = %v,%v", o, ok)
	}
	if f, ok := p.First(); !ok || f != 3356 {
		t.Errorf("First = %v,%v", f, ok)
	}
	// Path ending in an AS_SET has no unambiguous origin.
	withSet := ASPath{
		{Type: SegmentSequence, ASNs: []ASN{64500}},
		{Type: SegmentSet, ASNs: []ASN{64501, 64502}},
	}
	if _, ok := withSet.Origin(); ok {
		t.Error("AS_SET-terminated path should have no origin")
	}
	var empty ASPath
	if _, ok := empty.Origin(); ok {
		t.Error("empty path has no origin")
	}
	if _, ok := empty.First(); ok {
		t.Error("empty path has no first")
	}
}

func TestASPathLenAndContains(t *testing.T) {
	p := ASPath{
		{Type: SegmentSequence, ASNs: []ASN{1, 2, 3}},
		{Type: SegmentSet, ASNs: []ASN{4, 5}},
	}
	if p.Len() != 4 { // 3 for sequence + 1 for set
		t.Errorf("Len = %d", p.Len())
	}
	if !p.Contains(5) || p.Contains(6) {
		t.Error("Contains")
	}
}

func TestASPathString(t *testing.T) {
	p := ASPath{
		{Type: SegmentSequence, ASNs: []ASN{50509, 34665}},
		{Type: SegmentSet, ASNs: []ASN{1, 2}},
	}
	s := p.String()
	if !strings.Contains(s, "50509 34665") || !strings.Contains(s, "{1,2}") {
		t.Errorf("String = %q", s)
	}
}

func TestASPathSegmentRoundTrip(t *testing.T) {
	u := &Update{
		Attrs: Attrs{
			Origin: OriginIncomplete,
			Path: ASPath{
				{Type: SegmentSequence, ASNs: []ASN{64500, 4200000000}},
				{Type: SegmentSet, ASNs: []ASN{65000, 65001}},
			},
			NextHop:    netx.AddrFrom4(10, 0, 0, 1),
			HasNextHop: true,
		},
		NLRI: []netx.Prefix{netx.MustParsePrefix("192.0.2.0/24")},
	}
	wire, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attrs.Path.Equal(u.Attrs.Path) {
		t.Errorf("Path = %v", got.Attrs.Path)
	}
	if got.Attrs.Origin != OriginIncomplete {
		t.Errorf("Origin = %d", got.Attrs.Origin)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     make([]byte, 10),
		"badmarker": make([]byte, 19),
	}
	for name, b := range cases {
		if _, err := DecodeUpdate(b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Valid marker but wrong declared length.
	msg := make([]byte, 19)
	for i := 0; i < 16; i++ {
		msg[i] = 0xff
	}
	msg[16], msg[17], msg[18] = 0, 25, TypeUpdate
	if _, err := DecodeUpdate(msg); err == nil {
		t.Error("expected length mismatch error")
	}
	// Non-UPDATE type.
	msg[16], msg[17], msg[18] = 0, 19, 4 // KEEPALIVE
	if _, err := DecodeUpdate(msg); err == nil {
		t.Error("expected non-update error")
	}
}

func TestDecodePrefixesRejectsBadNLRI(t *testing.T) {
	if _, err := appendDecodedPrefixes(nil, []byte{33, 0, 0, 0, 0, 0}); err == nil {
		t.Error("length 33 should fail")
	}
	if _, err := appendDecodedPrefixes(nil, []byte{24, 192, 0}); err == nil {
		t.Error("truncated NLRI should fail")
	}
	if _, err := appendDecodedPrefixes(nil, []byte{8, 10, 99}); err == nil {
		t.Error("trailing garbage should fail as truncated entry")
	}
}

func TestDecodeUpdateFuzzSafety(t *testing.T) {
	// Random mutations of a valid message must never panic.
	u := &Update{
		Attrs: Attrs{
			Origin: OriginIGP, Path: Sequence(64500, 64501),
			NextHop: netx.AddrFrom4(10, 0, 0, 1), HasNextHop: true,
		},
		NLRI: []netx.Prefix{netx.MustParsePrefix("192.0.2.0/24")},
	}
	wire, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), wire...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = DecodeUpdate(mut) // must not panic
	}
}

func TestEncodeUpdateTooLarge(t *testing.T) {
	u := &Update{}
	for i := 0; i < 2000; i++ {
		u.NLRI = append(u.NLRI, netx.PrefixFrom(netx.AddrFrom4(10, byte(i>>8), byte(i), 0), 24))
	}
	if _, err := EncodeUpdate(u); err == nil {
		t.Error("oversized update should fail to encode")
	}
}

func TestASNString(t *testing.T) {
	if ASN(263692).String() != "AS263692" {
		t.Errorf("ASN.String = %q", ASN(263692).String())
	}
	if AS0.String() != "AS0" {
		t.Errorf("AS0.String = %q", AS0.String())
	}
}
