package irr

import (
	"bytes"
	"strings"
	"testing"
)

func FuzzParse(f *testing.F) {
	f.Add(sampleRPSL)
	f.Add("route: 1.2.3.0/24\norigin: AS1\n")
	f.Add("+ orphan continuation\n")
	f.Add("# only comments\n\n\n")
	f.Fuzz(func(t *testing.T, s string) {
		objs, err := Parse(strings.NewReader(s))
		if err != nil {
			return
		}
		// Accepted objects must print and re-parse to the same count.
		var buf bytes.Buffer
		if err := Print(&buf, objs); err != nil {
			t.Fatalf("print: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if len(back) != len(objs) {
			t.Fatalf("object count %d -> %d", len(objs), len(back))
		}
	})
}

func FuzzParseJournal(f *testing.F) {
	var db DB
	obj := &Object{}
	obj.Add("route", "192.0.2.0/24")
	obj.Add("origin", "AS64500")
	_ = db.Add(100, obj)
	var buf bytes.Buffer
	_ = db.WriteJournal(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("%ADD zzz\nroute: x\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ParseJournal(data)
		if err != nil {
			return
		}
		// The routes parsed at append must answer as the journal text does.
		checkRouteHistory(t, db)
	})
}
