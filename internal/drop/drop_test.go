package drop

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"dropscope/internal/ingest"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

var d0 = timex.MustParseDay("2019-06-05")

func e(pfx, ref string) Entry {
	return Entry{Prefix: netx.MustParsePrefix(pfx), SBLRef: ref}
}

func TestWriteParseRoundTrip(t *testing.T) {
	entries := []Entry{
		e("192.0.2.0/24", "SBL123456"),
		e("10.0.0.0/8", ""),
	}
	var buf bytes.Buffer
	if err := Write(&buf, d0, entries); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "; Spamhaus DROP List 2019-06-05") {
		t.Errorf("header: %q", buf.String())
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != entries[0] || got[1] != entries[1] {
		t.Errorf("round trip: %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("not-a-prefix ; SBL1\n")); err == nil {
		t.Error("bad prefix should fail")
	}
	got, err := Parse(strings.NewReader("; just a comment\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("comment-only: %v %v", got, err)
	}
}

func TestArchiveOrdering(t *testing.T) {
	a := NewArchive()
	if err := a.AddSnapshot(d0, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSnapshot(d0, nil); err == nil {
		t.Error("duplicate day should fail")
	}
	if err := a.AddSnapshot(d0-1, nil); err == nil {
		t.Error("out-of-order day should fail")
	}
}

func TestListingsLifecycle(t *testing.T) {
	a := NewArchive()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	p1 := e("192.0.2.0/24", "SBL1")
	p2 := e("198.51.100.0/24", "SBL2")
	must(a.AddSnapshot(d0, []Entry{p1}))
	must(a.AddSnapshot(d0+1, []Entry{p1, p2}))
	must(a.AddSnapshot(d0+2, []Entry{p2}))     // p1 removed
	must(a.AddSnapshot(d0+3, []Entry{p1, p2})) // p1 relisted

	ls := a.Listings()
	if len(ls) != 3 {
		t.Fatalf("listings = %+v", ls)
	}
	// Sorted by added day: p1@d0, p2@d0+1, p1@d0+3.
	if ls[0].Prefix != p1.Prefix || ls[0].Added != d0 || !ls[0].HasRemoved || ls[0].Removed != d0+2 {
		t.Errorf("ls[0] = %+v", ls[0])
	}
	if ls[1].Prefix != p2.Prefix || ls[1].Added != d0+1 || ls[1].HasRemoved {
		t.Errorf("ls[1] = %+v", ls[1])
	}
	if ls[2].Prefix != p1.Prefix || ls[2].Added != d0+3 || ls[2].HasRemoved {
		t.Errorf("ls[2] = %+v", ls[2])
	}
	if ls[0].SBLRef != "SBL1" {
		t.Errorf("SBLRef = %q", ls[0].SBLRef)
	}
}

func TestListedAtAndSnapshotLookup(t *testing.T) {
	a := NewArchive()
	p := e("192.0.2.0/24", "SBL1")
	if err := a.AddSnapshot(d0, []Entry{p}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSnapshot(d0+10, nil); err != nil {
		t.Fatal(err)
	}
	if a.ListedAt(p.Prefix, d0-1) {
		t.Error("listed before first snapshot")
	}
	if !a.ListedAt(p.Prefix, d0) || !a.ListedAt(p.Prefix, d0+5) {
		t.Error("listed during stay (snapshot persistence between days)")
	}
	if a.ListedAt(p.Prefix, d0+10) {
		t.Error("listed after removal snapshot")
	}
	if _, ok := a.Snapshot(d0 + 5); ok {
		t.Error("no exact snapshot at d0+5")
	}
	if _, day, ok := a.SnapshotAtOrBefore(d0 + 5); !ok || day != d0 {
		t.Errorf("SnapshotAtOrBefore = %v %v", day, ok)
	}
	if got := len(a.Days()); got != 2 {
		t.Errorf("Days = %d", got)
	}
}

func TestListingsEmptyArchive(t *testing.T) {
	if got := NewArchive().Listings(); len(got) != 0 {
		t.Errorf("empty archive listings = %v", got)
	}
}

// TestParseLineLimit pins the line limit the parser kept from
// bufio.Scanner with a 1 MiB buffer: a line of 1 MiB or more, its
// newline excluded, fails the snapshot in either mode; one byte less
// parses.
func TestParseLineLimit(t *testing.T) {
	for _, n := range []int{1<<20 - 1, 1 << 20} {
		for _, end := range []string{"\n", ""} {
			data := "; Spamhaus DROP List 2019-06-05\n" + strings.Repeat(" ", n-len("10.0.0.0/8")) + "10.0.0.0/8" + end
			for _, lenient := range []bool{false, true} {
				var src *ingest.Source
				if lenient {
					src = new(ingest.Source)
				}
				entries, err := ParseHealth(strings.NewReader(data), src)
				if tooLong := n >= 1<<20; (err == bufio.ErrTooLong) != tooLong || (!tooLong && len(entries) != 1) {
					t.Errorf("%d-byte line, newline %q, lenient %v: %d entries, error %v", n, end, lenient, len(entries), err)
				}
			}
		}
	}
}
