package irr

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

const sampleRPSL = `route:         192.0.2.0/24
descr:         Example route   # trailing comment
origin:        AS64500
mnt-by:        MAINT-EX
org:           ORG-EX1
created:       2019-06-01
source:        RADB

# a standalone comment between objects
mntner:        MAINT-EX
descr:         Example maintainer
+              continued on a plus line
auth:          CRYPT-PW x

route:         198.51.100.0/24
origin:        AS64501
source:        RADB
`

func TestParseObjects(t *testing.T) {
	objs, err := Parse(strings.NewReader(sampleRPSL))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objects", len(objs))
	}
	if objs[0].Class() != "route" || objs[0].Key() != "192.0.2.0/24" {
		t.Errorf("obj0 = %v %v", objs[0].Class(), objs[0].Key())
	}
	if v, _ := objs[0].Get("descr"); v != "Example route" {
		t.Errorf("descr with comment stripped = %q", v)
	}
	if objs[1].Class() != "mntner" {
		t.Errorf("obj1 class = %q", objs[1].Class())
	}
	if v, _ := objs[1].Get("descr"); v != "Example maintainer continued on a plus line" {
		t.Errorf("continuation = %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("   leading continuation\n")); err == nil {
		t.Error("orphan continuation should fail")
	}
	if _, err := Parse(strings.NewReader("noline\n")); err == nil {
		t.Error("missing colon should fail")
	}
	if _, err := Parse(strings.NewReader(":empty name\n")); err == nil {
		t.Error("empty attribute name should fail")
	}
}

// TestParseLineLimit pins Parse's line limit: a line of 1 MiB or more,
// its newline excluded, fails the parse; one byte less parses.
func TestParseLineLimit(t *testing.T) {
	for _, n := range []int{1<<20 - 1, 1 << 20} {
		for _, end := range []string{"\n", ""} {
			data := "remarks:" + strings.Repeat("x", n-len("remarks:")) + end
			objs, err := Parse(strings.NewReader(data))
			var got string
			if len(objs) == 1 {
				got, _ = objs[0].Get("remarks")
			}
			if tooLong := n >= 1<<20; (err == bufio.ErrTooLong) != tooLong || (!tooLong && len(got) != n-len("remarks:")) {
				t.Errorf("%d-byte line, newline %q: %d objects, error %v", n, end, len(objs), err)
			}
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	objs, err := Parse(strings.NewReader(sampleRPSL))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Print(&buf, objs); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(objs) {
		t.Fatalf("round trip count: %d != %d", len(back), len(objs))
	}
	for i := range objs {
		if back[i].Class() != objs[i].Class() || back[i].Key() != objs[i].Key() {
			t.Errorf("object %d differs", i)
		}
	}
}

func TestAsRoute(t *testing.T) {
	objs, err := Parse(strings.NewReader(sampleRPSL))
	if err != nil {
		t.Fatal(err)
	}
	r, err := objs[0].AsRoute()
	if err != nil {
		t.Fatal(err)
	}
	if r.Prefix.String() != "192.0.2.0/24" || r.Origin != 64500 || r.MntBy != "MAINT-EX" || r.OrgID != "ORG-EX1" {
		t.Errorf("route = %+v", r)
	}
	if !r.HasDate || r.Created != timex.MustParseDay("2019-06-01") {
		t.Errorf("created = %v %v", r.Created, r.HasDate)
	}
	if _, err := objs[1].AsRoute(); err == nil {
		t.Error("mntner should not convert to route")
	}
	// Route without created date.
	r2, err := objs[2].AsRoute()
	if err != nil {
		t.Fatal(err)
	}
	if r2.HasDate {
		t.Error("obj2 should have no created date")
	}
}

func TestRouteObjectRoundTrip(t *testing.T) {
	r := Route{
		Prefix:  netx.MustParsePrefix("203.0.113.0/24"),
		Origin:  50509,
		Descr:   "hijack special",
		MntBy:   "MAINT-XX",
		OrgID:   "ORG-XX9",
		Source:  "RADB",
		Created: timex.MustParseDay("2021-01-15"),
		HasDate: true,
	}
	back, err := r.Object().AsRoute()
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip: %+v != %+v", back, r)
	}
}

func TestBadRouteObjects(t *testing.T) {
	o := &Object{}
	o.Add("route", "not-a-prefix")
	o.Add("origin", "AS1")
	if _, err := o.AsRoute(); err == nil {
		t.Error("bad prefix should fail")
	}
	o2 := &Object{}
	o2.Add("route", "192.0.2.0/24")
	if _, err := o2.AsRoute(); err == nil {
		t.Error("missing origin should fail")
	}
	o3 := &Object{}
	o3.Add("route", "192.0.2.0/24")
	o3.Add("origin", "64500") // missing AS prefix
	if _, err := o3.AsRoute(); err == nil {
		t.Error("malformed origin should fail")
	}
}

func mkRoute(pfx string, origin uint32, day string) *Object {
	r := Route{
		Prefix: netx.MustParsePrefix(pfx),
		Origin: bgpASN(origin),
		Source: "RADB",
	}
	if day != "" {
		r.Created = timex.MustParseDay(day)
		r.HasDate = true
	}
	return r.Object()
}

func TestDBSnapshotAndHistory(t *testing.T) {
	var db DB
	d := timex.MustParseDay
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Add(d("2019-07-01"), mkRoute("192.0.2.0/24", 64500, "2019-07-01")))
	must(db.Add(d("2019-08-01"), mkRoute("192.0.2.0/25", 50509, "2019-08-01")))
	must(db.Del(d("2019-09-01"), mkRoute("192.0.2.0/24", 64500, "")))
	must(db.Add(d("2019-10-01"), mkRoute("198.51.100.0/24", 64501, "2019-10-01")))

	if got := len(db.SnapshotAt(d("2019-07-15"))); got != 1 {
		t.Errorf("snapshot 07-15: %d objects", got)
	}
	if got := len(db.SnapshotAt(d("2019-08-15"))); got != 2 {
		t.Errorf("snapshot 08-15: %d objects", got)
	}
	if got := len(db.SnapshotAt(d("2019-09-15"))); got != 1 {
		t.Errorf("snapshot 09-15: %d objects (del should apply)", got)
	}

	hist := db.RouteHistory(netx.MustParsePrefix("192.0.2.0/24"))
	if len(hist) != 2 {
		t.Fatalf("history = %+v", hist)
	}
	if !hist[0].HasRemoved || hist[0].Removed != d("2019-09-01") {
		t.Errorf("hist[0] = %+v", hist[0])
	}
	if hist[1].HasRemoved {
		t.Errorf("hist[1] should still be live: %+v", hist[1])
	}
	if hist[1].Route.Origin != 50509 {
		t.Errorf("hist[1] origin = %v", hist[1].Route.Origin)
	}

	// RoutesAt: exact or more specific only.
	rs := db.RoutesAt(netx.MustParsePrefix("192.0.2.0/24"), d("2019-08-15"))
	if len(rs) != 2 {
		t.Errorf("RoutesAt = %+v", rs)
	}
	rs = db.RoutesAt(netx.MustParsePrefix("192.0.2.0/25"), d("2019-08-15"))
	if len(rs) != 1 || rs[1-1].Origin != 50509 {
		t.Errorf("RoutesAt /25 = %+v", rs)
	}
}

func TestDBRejectsOutOfOrder(t *testing.T) {
	var db DB
	d := timex.MustParseDay
	if err := db.Add(d("2020-01-02"), mkRoute("192.0.2.0/24", 1, "")); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(d("2020-01-01"), mkRoute("192.0.2.0/24", 2, "")); err == nil {
		t.Error("out-of-order journal append should fail")
	}
}

func TestDBSameDayAddDel(t *testing.T) {
	var db DB
	d := timex.MustParseDay("2020-05-05")
	obj := mkRoute("10.0.0.0/8", 64500, "2020-05-05")
	if err := db.Add(d, obj); err != nil {
		t.Fatal(err)
	}
	if err := db.Del(d, obj); err != nil {
		t.Fatal(err)
	}
	if got := len(db.SnapshotAt(d)); got != 0 {
		t.Errorf("same-day add+del should leave nothing: %d", got)
	}
	hist := db.RouteHistory(netx.MustParsePrefix("10.0.0.0/8"))
	if len(hist) != 1 || !hist[0].HasRemoved {
		t.Errorf("history should record the short-lived object: %+v", hist)
	}
}

func TestDBMultipleOriginsSamePrefix(t *testing.T) {
	var db DB
	d := timex.MustParseDay
	p := netx.MustParsePrefix("192.0.2.0/24")
	if err := db.Add(d("2020-01-01"), mkRoute("192.0.2.0/24", 100, "2020-01-01")); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(d("2020-01-02"), mkRoute("192.0.2.0/24", 200, "2020-01-02")); err != nil {
		t.Fatal(err)
	}
	if got := len(db.RoutesAt(p, d("2020-01-03"))); got != 2 {
		t.Errorf("two origins should coexist: %d", got)
	}
	if err := db.Del(d("2020-01-04"), mkRoute("192.0.2.0/24", 100, "")); err != nil {
		t.Fatal(err)
	}
	rs := db.RoutesAt(p, d("2020-01-05"))
	if len(rs) != 1 || rs[0].Origin != 200 {
		t.Errorf("delete should be origin-specific: %+v", rs)
	}
}

func bgpASN(v uint32) bgp.ASN { return bgp.ASN(v) }
