package rirstats

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

var d0 = timex.MustParseDay("2019-06-05")

func TestRangeToPrefixes(t *testing.T) {
	cases := []struct {
		start string
		count uint64
		want  []string
	}{
		{"10.0.0.0", 1 << 24, []string{"10.0.0.0/8"}},
		{"192.0.2.0", 256, []string{"192.0.2.0/24"}},
		{"192.0.2.0", 768, []string{"192.0.2.0/23", "192.0.4.0/24"}},
		{"192.0.2.128", 384, []string{"192.0.2.128/25", "192.0.3.0/24"}},
		{"0.0.0.0", 1 << 32, []string{"0.0.0.0/0"}},
		{"10.0.0.1", 2, []string{"10.0.0.1/32", "10.0.0.2/32"}},
	}
	for _, c := range cases {
		start, err := netx.ParseAddr(c.start)
		if err != nil {
			t.Fatal(err)
		}
		got := RangeToPrefixes(start, c.count)
		if len(got) != len(c.want) {
			t.Errorf("%s+%d = %v, want %v", c.start, c.count, got, c.want)
			continue
		}
		var total uint64
		for i := range got {
			if got[i].String() != c.want[i] {
				t.Errorf("%s+%d [%d] = %v, want %v", c.start, c.count, i, got[i], c.want[i])
			}
			total += got[i].NumAddrs()
		}
		if total != c.count {
			t.Errorf("%s+%d covers %d addrs", c.start, c.count, total)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	recs := []Record{
		{Registry: ARIN, CC: "US", Start: netx.AddrFrom4(23, 0, 0, 0), Count: 1 << 24, Date: d0, Status: Allocated, OpaqueID: "org-1"},
		{Registry: ARIN, CC: "", Start: netx.AddrFrom4(24, 0, 0, 0), Count: 1 << 16, Status: Available},
		{Registry: LACNIC, CC: "PE", Start: netx.AddrFrom4(132, 255, 0, 0), Count: 1024, Date: d0 - 1000, Status: Assigned},
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, ARIN, d0, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // only ARIN records written
		t.Fatalf("parsed %d records: %+v", len(got), got)
	}
	if got[0].Status != Allocated || got[0].Date != d0 || got[0].OpaqueID != "org-1" {
		t.Errorf("rec0 = %+v", got[0])
	}
	if got[1].Status != Available || got[1].Date != 0 {
		t.Errorf("rec1 = %+v", got[1])
	}
}

func TestParseFileErrors(t *testing.T) {
	bad := []string{
		"arin|US|ipv4|23.0.0.0|abc|20190605|allocated|x\n",
		"arin|US|ipv4|badaddr|256|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|256|2019|allocated|x\n",
		"arin|US|ipv4\n",
		"arin|US|ipv4|23.0.0.0|0|20190605|allocated|x\n",
	}
	for i, s := range bad {
		if _, err := ParseFile(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// IPv6 records are skipped, not an error.
	recs, err := ParseFile(bytes.NewReader([]byte("ripencc|NL|ipv6|2001:db8::|32|20190605|allocated|x\n")))
	if err != nil || len(recs) != 0 {
		t.Errorf("ipv6 skip: %v %v", recs, err)
	}
}

func newTimeline(t *testing.T) *Timeline {
	t.Helper()
	var tl Timeline
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tl.Manage(netx.MustParsePrefix("23.0.0.0/8"), ARIN, Allocated))
	must(tl.Manage(netx.MustParsePrefix("41.0.0.0/8"), Afrinic, Available))
	must(tl.Manage(netx.MustParsePrefix("103.100.0.0/16"), APNIC, Available))
	return &tl
}

func TestTimelineStatusAt(t *testing.T) {
	tl := newTimeline(t)
	if st, rir, ok := tl.StatusAt(netx.MustParsePrefix("23.5.0.0/16"), d0); !ok || st != Allocated || rir != ARIN {
		t.Errorf("StatusAt = %v %v %v", st, rir, ok)
	}
	if _, _, ok := tl.StatusAt(netx.MustParsePrefix("8.0.0.0/8"), d0); ok {
		t.Error("unmanaged space should report not ok")
	}
}

func TestTimelineTransitions(t *testing.T) {
	tl := newTimeline(t)
	p := netx.MustParsePrefix("41.0.0.0/8")
	if err := tl.SetStatus(p, d0+100, Allocated); err != nil {
		t.Fatal(err)
	}
	if err := tl.SetStatus(p, d0+200, Available); err != nil { // deallocated
		t.Fatal(err)
	}
	if tl.AllocatedAt(p, d0+50) {
		t.Error("allocated before transition")
	}
	if !tl.AllocatedAt(p, d0+150) {
		t.Error("not allocated mid-span")
	}
	if tl.AllocatedAt(p, d0+250) {
		t.Error("allocated after deallocation")
	}
	if !tl.UnallocatedAt(p, d0+250) {
		t.Error("UnallocatedAt should mirror AllocatedAt")
	}
	// Unmanaged space is also "unallocated".
	if !tl.UnallocatedAt(netx.MustParsePrefix("8.0.0.0/8"), d0) {
		t.Error("unmanaged space is unallocated")
	}
}

func TestTimelineOutOfOrderChange(t *testing.T) {
	tl := newTimeline(t)
	p := netx.MustParsePrefix("41.0.0.0/8")
	if err := tl.SetStatus(p, d0+100, Allocated); err != nil {
		t.Fatal(err)
	}
	if err := tl.SetStatus(p, d0+50, Available); err == nil {
		t.Error("out-of-order change should fail")
	}
	if err := tl.SetStatus(netx.MustParsePrefix("9.0.0.0/8"), d0, Allocated); err == nil {
		t.Error("unmanaged SetStatus should fail")
	}
	if err := tl.Manage(netx.MustParsePrefix("23.0.0.0/8"), ARIN, Available); err == nil {
		t.Error("double Manage should fail")
	}
}

func TestFreePool(t *testing.T) {
	tl := newTimeline(t)
	if got := tl.FreePool(Afrinic, d0); got != 1<<24 {
		t.Errorf("afrinic pool = %d", got)
	}
	p := netx.MustParsePrefix("41.0.0.0/8")
	if err := tl.SetStatus(p, d0+10, Allocated); err != nil {
		t.Fatal(err)
	}
	if got := tl.FreePool(Afrinic, d0+20); got != 0 {
		t.Errorf("afrinic pool after allocation = %d", got)
	}
	if got := tl.FreePool(APNIC, d0); got != 1<<16 {
		t.Errorf("apnic pool = %d", got)
	}
	if got := tl.FreePool(ARIN, d0); got != 0 {
		t.Errorf("arin pool = %d", got)
	}
}

func TestRecordsAt(t *testing.T) {
	tl := newTimeline(t)
	p := netx.MustParsePrefix("41.0.0.0/8")
	if err := tl.SetStatus(p, d0+10, Allocated); err != nil {
		t.Fatal(err)
	}
	recs := tl.RecordsAt(d0 + 20)
	if len(recs) != 3 {
		t.Fatalf("records = %+v", recs)
	}
	// Ordered by start address: 23/8, 41/8, 103.100/16.
	if recs[0].Registry != ARIN || recs[1].Registry != Afrinic || recs[2].Registry != APNIC {
		t.Errorf("order = %+v", recs)
	}
	if recs[1].Status != Allocated || recs[1].Date != d0+10 {
		t.Errorf("41/8 = %+v", recs[1])
	}
	if recs[2].Status != Available || recs[2].Date != 0 {
		t.Errorf("103.100/16 = %+v", recs[2])
	}
}

// TestEachAtMatchesRecordsAt requires EachAt to visit exactly the
// blocks RecordsAt lists, each record being one block.
func TestEachAtMatchesRecordsAt(t *testing.T) {
	tl := newTimeline(t)
	if err := tl.SetStatus(netx.MustParsePrefix("41.0.0.0/8"), d0+10, Allocated); err != nil {
		t.Fatal(err)
	}
	for _, d := range []timex.Day{d0, d0 + 10, d0 + 20} {
		var want, got []Record
		for _, rec := range tl.RecordsAt(d) {
			want = append(want, Record{Registry: rec.Registry, Start: rec.Start, Count: rec.Count, Status: rec.Status})
		}
		tl.EachAt(d, func(p netx.Prefix, registry RIR, st Status) {
			got = append(got, Record{Registry: registry, Start: p.Addr(), Count: p.NumAddrs(), Status: st})
		})
		sort.Slice(got, func(i, j int) bool { return got[i].Start < got[j].Start })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("day %v: EachAt visited %+v, RecordsAt lists %+v", d, got, want)
		}
	}
}

func TestManagedBy(t *testing.T) {
	tl := newTimeline(t)
	if rir, ok := tl.ManagedBy(netx.MustParsePrefix("103.100.5.0/24")); !ok || rir != APNIC {
		t.Errorf("ManagedBy = %v %v", rir, ok)
	}
	if _, ok := tl.ManagedBy(netx.MustParsePrefix("1.0.0.0/8")); ok {
		t.Error("unmanaged")
	}
	if got := len(tl.Blocks()); got != 3 {
		t.Errorf("Blocks = %d", got)
	}
}
