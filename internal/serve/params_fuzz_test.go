package serve

import (
	"net/url"
	"strings"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// refBools is the as0 parameter's accepted spellings.
var refBools = map[string]bool{"1": true, "true": true, "0": false, "false": false, "": false}

// refUnescape is unescape's reference: url.QueryUnescape, with decoded
// values longer than the 64-byte scratch rejected.
func refUnescape(s string) (string, bool) {
	v, err := url.QueryUnescape(s)
	if err != nil || len(v) > len(reqState{}.scratch) {
		return "", false
	}
	return v, true
}

// refParams is parseParams' reference, built from the standard library
// and the string parsers. Pairs are split on '&' and taken in order; a
// pair without '=' is ignored, and keys are matched raw. The first pair
// whose value does not decode, or whose known key's value does not
// parse, makes the query bad under its key. Otherwise the last
// occurrence of each known key wins.
func refParams(raw string) params {
	var q params
	for _, kv := range strings.Split(raw, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		val, ok := refUnescape(v)
		if !ok {
			return params{bad: k}
		}
		var err error
		switch k {
		case "prefix":
			q.prefix, err = netx.ParsePrefix(val)
			q.hasPrefix = true
		case "day":
			q.day, err = timex.ParseDay(val)
			q.hasDay = true
		case "origin":
			q.origin, err = bgp.ParseASN(val)
			q.hasOrigin = true
		case "as0":
			q.as0, ok = refBools[val]
		}
		if err != nil || !ok {
			return params{bad: k}
		}
	}
	return q
}

// FuzzParseParams checks the allocation-free query scanner against
// refParams: the same bad key, or, for a query that parses, the same
// values. It also checks unescape and parseBoolBytes on the whole input.
func FuzzParseParams(f *testing.F) {
	for _, seed := range []string{
		"",
		"prefix=10.0.0.0%2F8&day=2021-03-04&origin=AS64500&as0=1",
		"prefix=10.0.0.0/8&prefix=192.0.2.0%2f24",
		"prefix=bogus&prefix=10.0.0.0/8",
		"day=2019-02-30",
		"origin=zz&day=2021-01-01",
		"as0=true&as0=&as0=0",
		"as0=yes",
		"x=%zz&prefix=10.0.0.0/8",
		"x=%2",
		"noequals&prefix=10.0.0.0/8&&=",
		"prefix=+10.0.0.0/8",
		"a=" + strings.Repeat("b", 64),
		"a=" + strings.Repeat("b", 65),
		"a=" + strings.Repeat("%41", 65),
		"%70refix=10.0.0.0/8",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var st reqState
		got, want := parseParams(raw, &st), refParams(raw)
		if got.bad != want.bad {
			t.Fatalf("parseParams(%q).bad = %q, reference %q", raw, got.bad, want.bad)
		}
		if got.bad == "" && got != want {
			t.Fatalf("parseParams(%q) = %+v, reference %+v", raw, got, want)
		}

		dec, ok := unescape(st.scratch[:0], raw)
		wantDec, wantOK := refUnescape(raw)
		if ok != wantOK || ok && string(dec) != wantDec {
			t.Fatalf("unescape(%q) = %q, %v; reference %q, %v", raw, dec, ok, wantDec, wantOK)
		}

		b, ok := parseBoolBytes([]byte(raw))
		wantB, wantOK := refBools[raw]
		if b != wantB || ok != wantOK {
			t.Fatalf("parseBoolBytes(%q) = %v, %v; reference %v, %v", raw, b, ok, wantB, wantOK)
		}
	})
}
