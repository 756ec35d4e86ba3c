package rirstats

import (
	"bytes"
	"testing"
)

// FuzzParseFile is a differential: the byte-level scanner, through both
// of its consumers and in both modes, against the line-at-a-time
// reference parser.
func FuzzParseFile(f *testing.F) {
	f.Add("2|arin|20220330|1|1|19830101|20220330|+0000\narin|*|ipv4|*|1|summary\narin|US|ipv4|23.0.0.0|16777216|20190605|allocated|org-1\n")
	f.Add("")
	f.Add("x|y|z\n")
	f.Add(string(sampleFile(7)))
	f.Add("arin|US|ipv4|23.0.0.0|768||available\n arin|ZZ|ipv4|0.0.0.1|4294967295|2020-02-29|reserved|a|b|c \r\n")
	f.Fuzz(func(t *testing.T, s string) {
		checkAgainstReference(t, []byte(s))
		recs, err := ParseFile(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		for _, r := range recs {
			// Accepted records must decompose into prefixes covering
			// exactly Count addresses.
			var total uint64
			for _, p := range r.Prefixes() {
				total += p.NumAddrs()
			}
			if total != r.Count {
				t.Fatalf("prefix decomposition %d != count %d", total, r.Count)
			}
		}
	})
}
