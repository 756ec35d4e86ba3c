package irr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// referenceRouteHistory is the event-scanning query RouteHistory
// replaced: every journal object is re-interpreted from its RPSL text
// on each call and matched under a printed "prefix|origin" key. It
// returns closed lifetimes in journal order followed by the still-open
// objects in map order; the caller orders the result.
func referenceRouteHistory(db *DB, p netx.Prefix) []RouteSpan {
	type open struct {
		r   Route
		day timex.Day
	}
	opens := make(map[string]open)
	var out []RouteSpan
	for _, e := range db.events {
		if e.Object.Class() != "route" {
			continue
		}
		r, err := e.Object.AsRoute()
		if err != nil || !p.Covers(r.Prefix) {
			continue
		}
		k := r.Prefix.String() + "|" + r.Origin.String()
		switch e.Op {
		case OpAdd:
			opens[k] = open{r, e.Day}
		case OpDel:
			if o, ok := opens[k]; ok {
				out = append(out, RouteSpan{Route: o.r, Created: o.day, Removed: e.Day, HasRemoved: true})
				delete(opens, k)
			}
		}
	}
	for _, o := range opens {
		out = append(out, RouteSpan{Route: o.r, Created: o.day})
	}
	return out
}

// checkRouteHistory compares RouteHistory with the reference, under the
// total order, for every route prefix in the journal and the /8…/24
// prefixes covering it.
func checkRouteHistory(t testing.TB, db *DB) {
	t.Helper()
	queries := make(map[netx.Prefix]bool)
	for _, e := range db.events {
		r, err := e.Object.AsRoute()
		if err != nil {
			continue
		}
		queries[r.Prefix] = true
		for bits := 8; bits <= 24 && bits < r.Prefix.Bits(); bits++ {
			queries[netx.PrefixFrom(r.Prefix.Addr(), bits)] = true
		}
	}
	for p := range queries {
		got := db.RouteHistory(p)
		want := referenceRouteHistory(db, p)
		slices.SortStableFunc(want, compareRouteSpans)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RouteHistory(%v):\n got %+v\nwant %+v", p, got, want)
		}
	}
}

// randomJournal replays a seeded mix of adds, deletes and re-adds over
// a small pool of nested prefixes and origins — same-day events, several
// origins on one prefix, deletes of absent objects — plus objects route
// queries must ignore: another class and route objects that do not
// parse.
func randomJournal(t *testing.T, seed int64) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prefixes := []string{
		"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25", "10.1.3.0/24",
		"10.200.0.0/14", "192.0.2.0/24", "192.0.2.0/26", "198.51.100.0/22",
	}
	db := &DB{}
	day := timex.MustParseDay("2020-01-01")
	for i := 0; i < 200; i++ {
		day += timex.Day(rng.Intn(3)) // often the same day
		var obj *Object
		switch rng.Intn(12) {
		case 0:
			obj = &Object{}
			obj.Add("mntner", fmt.Sprintf("MAINT-%d", rng.Intn(3)))
		case 1:
			obj = &Object{}
			obj.Add("route", "not-a-prefix")
			obj.Add("origin", "AS64500")
		case 2:
			obj = &Object{}
			obj.Add("route", prefixes[rng.Intn(len(prefixes))]) // no origin
		default:
			obj = Route{
				Prefix: netx.MustParsePrefix(prefixes[rng.Intn(len(prefixes))]),
				Origin: bgpASN(64500 + uint32(rng.Intn(3))),
				Descr:  fmt.Sprintf("object %d", i),
				Source: "RADB",
			}.Object()
		}
		var err error
		if rng.Intn(3) == 0 {
			err = db.Del(day, obj)
		} else {
			err = db.Add(day, obj)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestRouteHistoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		db := randomJournal(t, seed)
		if len(db.routes) == 0 || len(db.routes) == len(db.events) {
			t.Fatalf("seed %d: %d of %d events are routes; want a mix", seed, len(db.routes), len(db.events))
		}
		checkRouteHistory(t, db)

		// The journal text round-trips to the same answers.
		var buf bytes.Buffer
		if err := db.WriteJournal(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseJournal(buf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: re-parse: %v", seed, err)
		}
		checkRouteHistory(t, back)
		p := netx.MustParsePrefix("10.0.0.0/8")
		if !reflect.DeepEqual(db.RouteHistory(p), back.RouteHistory(p)) {
			t.Errorf("seed %d: history changed across a journal round trip", seed)
		}
	}
}

// TestRouteHistoryOrderIsTotal is the regression test for same-day,
// same-prefix route objects with different origins: they are all still
// open, so they used to come back in map-iteration order.
func TestRouteHistoryOrderIsTotal(t *testing.T) {
	var db DB
	p := netx.MustParsePrefix("192.0.2.0/24")
	for _, origin := range []uint32{64503, 64501, 64504, 64502} {
		if err := db.Add(10, Route{Prefix: p, Origin: bgpASN(origin)}.Object()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		hist := db.RouteHistory(p)
		if len(hist) != 4 {
			t.Fatalf("history = %+v", hist)
		}
		for j, s := range hist {
			if want := bgpASN(64501 + uint32(j)); s.Route.Origin != want {
				t.Fatalf("call %d: hist[%d].Origin = %v, want %v", i, j, s.Route.Origin, want)
			}
		}
	}
}
