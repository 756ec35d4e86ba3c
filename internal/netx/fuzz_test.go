package netx

import "testing"

func FuzzParsePrefix(f *testing.F) {
	for _, seed := range []string{
		"192.0.2.0/24", "0.0.0.0/0", "255.255.255.255/32", "10.0.0.0/8",
		"", "/", "1.2.3.4", "1.2.3.4/", "999.0.0.0/8", "1.2.3.4/33",
		"1.2.3.4/-1", "a.b.c.d/24", "1..2.3/8", "192.0.2.1/24",
		"10.0.0.0/+8", "0.0.0.0/-0", "10.0.0.0/008", "10.0.0.0/99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		pb, errb := ParsePrefixBytes([]byte(s))
		if pb != p || (err == nil) != (errb == nil) || (err != nil && err.Error() != errb.Error()) {
			t.Fatalf("ParsePrefix(%q) = %v, %v; ParsePrefixBytes = %v, %v", s, p, err, pb, errb)
		}
		if err != nil {
			return
		}
		// Any accepted prefix must round-trip exactly.
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip %q -> %v -> %v (%v)", s, p, back, err)
		}
	})
}

func FuzzParseAddr(f *testing.F) {
	for _, seed := range []string{"0.0.0.0", "255.255.255.255", "1.2.3.4", "", "256.1.1.1", "1.2.3", "....", "01.02.03.04"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		ab, errb := ParseAddrBytes([]byte(s))
		if ab != a || (err == nil) != (errb == nil) || (err != nil && err.Error() != errb.Error()) {
			t.Fatalf("ParseAddr(%q) = %v, %v; ParseAddrBytes = %v, %v", s, a, err, ab, errb)
		}
		if err != nil {
			return
		}
		back, err := ParseAddr(a.String())
		if err != nil || back != a {
			t.Fatalf("round trip %q -> %v -> %v (%v)", s, a, back, err)
		}
	})
}
