package rpki

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

var (
	d0  = timex.MustParseDay("2019-06-05")
	p22 = netx.MustParsePrefix("132.255.0.0/22")
	p24 = netx.MustParsePrefix("132.255.0.0/24")
)

func TestROAValidate(t *testing.T) {
	good := ROA{Prefix: p22, MaxLength: 24, ASN: 263692, TA: TALACNIC}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := ROA{Prefix: p22, MaxLength: 20, ASN: 1, TA: TARIPE}
	if err := bad.Validate(); err == nil {
		t.Error("maxLength < prefix length should fail")
	}
	bad2 := ROA{Prefix: p22, MaxLength: 33, ASN: 1, TA: TARIPE}
	if err := bad2.Validate(); err == nil {
		t.Error("maxLength > 32 should fail")
	}
}

func TestRFC6811Validation(t *testing.T) {
	roas := []ROA{
		{Prefix: p22, MaxLength: 22, ASN: 263692, TA: TALACNIC},
	}
	cases := []struct {
		name   string
		p      netx.Prefix
		origin bgp.ASN
		want   Validity
	}{
		{"exact match", p22, 263692, Valid},
		{"wrong origin", p22, 50509, Invalid},
		{"too specific", p24, 263692, Invalid},
		{"too specific wrong origin", p24, 50509, Invalid},
		{"uncovered", netx.MustParsePrefix("8.8.8.0/24"), 15169, NotFound},
	}
	for _, c := range cases {
		if got := Validate(c.p, c.origin, roas); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMaxLengthAllowsSubprefix(t *testing.T) {
	roas := []ROA{{Prefix: p22, MaxLength: 24, ASN: 263692, TA: TALACNIC}}
	if got := Validate(p24, 263692, roas); got != Valid {
		t.Errorf("within maxLength = %v", got)
	}
	p25 := netx.MustParsePrefix("132.255.0.0/25")
	if got := Validate(p25, 263692, roas); got != Invalid {
		t.Errorf("beyond maxLength = %v", got)
	}
}

func TestAS0ROANeverValid(t *testing.T) {
	// An AS0 ROA makes every announcement of the covered space Invalid —
	// even one claiming origin AS0 (RFC 7607: AS0 must not originate).
	roas := []ROA{{Prefix: p22, MaxLength: 32, ASN: bgp.AS0, TA: TAAPNICAS0}}
	if got := Validate(p24, 64500, roas); got != Invalid {
		t.Errorf("AS0-covered announcement = %v", got)
	}
	if got := Validate(p24, bgp.AS0, roas); got != Invalid {
		t.Errorf("origin AS0 announcement = %v", got)
	}
}

func TestValidIfAnyROAMatches(t *testing.T) {
	// RFC 6811: valid if ANY ROA matches, even when others don't.
	roas := []ROA{
		{Prefix: p22, MaxLength: 22, ASN: 111, TA: TARIPE},
		{Prefix: p22, MaxLength: 24, ASN: 263692, TA: TALACNIC},
	}
	if got := Validate(p24, 263692, roas); got != Valid {
		t.Errorf("any-match = %v", got)
	}
}

func TestArchiveLifecycle(t *testing.T) {
	var a Archive
	roa := ROA{Prefix: p22, MaxLength: 22, ASN: 263692, TA: TALACNIC}
	if err := a.Add(d0, roa); err != nil {
		t.Fatal(err)
	}
	if a.SignedAt(p22, d0-1) {
		t.Error("signed before creation")
	}
	if !a.SignedAt(p22, d0) || !a.SignedAt(p24, d0+100) {
		t.Error("should be signed after creation (covering more specifics too)")
	}
	if err := a.Revoke(d0+200, roa); err != nil {
		t.Fatal(err)
	}
	if a.SignedAt(p22, d0+200) {
		t.Error("signed after revocation")
	}
	if !a.SignedAt(p22, d0+199) {
		t.Error("still signed the day before revocation")
	}
	if got := a.ValidateAt(p22, 263692, d0+100, DefaultTALs); got != Valid {
		t.Errorf("ValidateAt during life = %v", got)
	}
	if got := a.ValidateAt(p22, 263692, d0+300, DefaultTALs); got != NotFound {
		t.Errorf("ValidateAt after revocation = %v", got)
	}
}

func TestArchiveRevokeAbsent(t *testing.T) {
	var a Archive
	roa := ROA{Prefix: p22, MaxLength: 22, ASN: 263692, TA: TALACNIC}
	if err := a.Revoke(d0, roa); err == nil {
		t.Error("revoking an absent ROA should fail")
	}
}

func TestArchiveOutOfOrder(t *testing.T) {
	var a Archive
	roa := ROA{Prefix: p22, MaxLength: 22, ASN: 1, TA: TARIPE}
	if err := a.Add(d0+10, roa); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(d0, roa); err == nil {
		t.Error("out-of-order add should fail")
	}
}

func TestAS0TALFiltering(t *testing.T) {
	var a Archive
	// RIR AS0 ROA under the APNIC AS0 TAL, not in DefaultTALs.
	as0 := ROA{Prefix: p22, MaxLength: 32, ASN: bgp.AS0, TA: TAAPNICAS0}
	if err := a.Add(d0, as0); err != nil {
		t.Fatal(err)
	}
	// A validator with default TALs doesn't see the AS0 ROA at all.
	if got := a.ValidateAt(p24, 64500, d0+1, DefaultTALs); got != NotFound {
		t.Errorf("default TALs should not see AS0 TAL: %v", got)
	}
	// A validator that loads the AS0 TAL rejects the squat.
	withAS0 := append(append([]TrustAnchor{}, DefaultTALs...), TAAPNICAS0)
	if got := a.ValidateAt(p24, 64500, d0+1, withAS0); got != Invalid {
		t.Errorf("AS0 TAL should invalidate the squat: %v", got)
	}
}

func TestFirstSignedAndHistory(t *testing.T) {
	var a Archive
	r1 := ROA{Prefix: p22, MaxLength: 22, ASN: 111, TA: TALACNIC}
	r2 := ROA{Prefix: p22, MaxLength: 22, ASN: 263692, TA: TALACNIC}
	if err := a.Add(d0, r1); err != nil {
		t.Fatal(err)
	}
	if err := a.Revoke(d0+50, r1); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(d0+50, r2); err != nil {
		t.Fatal(err)
	}
	day, asn, ok := a.FirstSigned(p22)
	if !ok || day != d0 || asn != 111 {
		t.Errorf("FirstSigned = %v %v %v", day, asn, ok)
	}
	hist := a.History(p24) // covering history includes the /22 ROAs
	if len(hist) != 2 {
		t.Fatalf("History = %+v", hist)
	}
	if hist[0].ROA.ASN != 111 || hist[0].Open || hist[0].Revoked != d0+50 {
		t.Errorf("hist[0] = %+v", hist[0])
	}
	if hist[1].ROA.ASN != 263692 || !hist[1].Open {
		t.Errorf("hist[1] = %+v", hist[1])
	}
}

func TestSnapshotCSVRoundTrip(t *testing.T) {
	var a Archive
	roas := []ROA{
		{Prefix: p22, MaxLength: 24, ASN: 263692, TA: TALACNIC},
		{Prefix: netx.MustParsePrefix("8.8.8.0/24"), MaxLength: 24, ASN: 15169, TA: TAARIN},
		{Prefix: netx.MustParsePrefix("1.0.0.0/8"), MaxLength: 32, ASN: bgp.AS0, TA: TAAPNICAS0},
	}
	for _, r := range roas {
		if err := a.Add(d0, r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.WriteSnapshotCSV(&buf, d0+1); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshotCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("parsed %d ROAs", len(back))
	}
	found := map[TrustAnchor]bool{}
	for _, r := range back {
		found[r.TA] = true
	}
	if !found[TALACNIC] || !found[TAARIN] || !found[TAAPNICAS0] {
		t.Errorf("TAs recovered = %v", found)
	}
}

func TestParseSnapshotCSVErrors(t *testing.T) {
	bad := []string{
		"URI,ASN,IP Prefix,Max Length\nonly,three,fields\n",
		"rsync://x/ripe/a.roa,ASxx,1.0.0.0/8,8\n",
		"rsync://x/ripe/a.roa,AS1,badprefix,8\n",
		"rsync://x/ripe/a.roa,AS1,1.0.0.0/8,zz\n",
		"rsync://x/ripe/a.roa,AS1,1.0.0.0/8,4\n", // maxLength < bits
	}
	for i, s := range bad {
		if _, err := ParseSnapshotCSV(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestLiveAtTALRestriction(t *testing.T) {
	var a Archive
	if err := a.Add(d0, ROA{Prefix: p22, MaxLength: 22, ASN: 1, TA: TARIPE}); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(d0, ROA{Prefix: netx.MustParsePrefix("1.0.0.0/8"), MaxLength: 32, ASN: bgp.AS0, TA: TALACNICAS0}); err != nil {
		t.Fatal(err)
	}
	if got := len(a.LiveAt(d0+1, nil)); got != 2 {
		t.Errorf("all TALs: %d", got)
	}
	if got := len(a.LiveAt(d0+1, DefaultTALs)); got != 1 {
		t.Errorf("default TALs: %d", got)
	}
}

// TestParseSnapshotCSVLineLimit pins the line limit the parser kept
// from bufio.Scanner with a 1 MiB buffer: a line of 1 MiB or more, its
// newline excluded, fails the snapshot in either mode; one byte less
// parses.
func TestParseSnapshotCSVLineLimit(t *testing.T) {
	const row = "rsync://rpki.example.net/ripe/1.roa,AS64500,10.0.0.0/8,24,2020-01-01,2021-01-01"
	for _, n := range []int{1<<20 - 1, 1 << 20} {
		for _, end := range []string{"\n", ""} {
			data := "URI,ASN,IP Prefix,Max Length,Not Before,Not After\n" + strings.Repeat(" ", n-len(row)) + row + end
			for _, lenient := range []bool{false, true} {
				var src *ingest.Source
				if lenient {
					src = new(ingest.Source)
				}
				roas, err := ParseSnapshotCSVHealth(strings.NewReader(data), src)
				if tooLong := n >= 1<<20; (err == bufio.ErrTooLong) != tooLong || (!tooLong && len(roas) != 1) {
					t.Errorf("%d-byte line, newline %q, lenient %v: %d ROAs, error %v", n, end, lenient, len(roas), err)
				}
			}
		}
	}
}
