package rib

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dropscope/internal/bgp"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

var (
	day0 = timex.MustParseDay("2019-06-05")
	pfx  = netx.MustParsePrefix("192.0.2.0/24")
)

func at(d timex.Day) time.Time { return d.Time() }

func peerTable() *mrt.PeerIndexTable {
	return &mrt.PeerIndexTable{
		When:        at(day0),
		CollectorID: netx.AddrFrom4(198, 51, 100, 1),
		ViewName:    "test",
		Peers: []mrt.Peer{
			{Addr: netx.AddrFrom4(203, 0, 113, 1), AS: 64500},
			{Addr: netx.AddrFrom4(203, 0, 113, 2), AS: 64501},
		},
	}
}

func announce(d timex.Day, peerIdx int, path bgp.ASPath, ps ...netx.Prefix) *mrt.BGP4MPMessage {
	peers := peerTable().Peers
	return &mrt.BGP4MPMessage{
		When:     at(d),
		PeerAS:   peers[peerIdx].AS,
		PeerAddr: peers[peerIdx].Addr,
		LocalAS:  6447,
		Update: &bgp.Update{
			Attrs: bgp.Attrs{Origin: bgp.OriginIGP, Path: path,
				NextHop: peers[peerIdx].Addr, HasNextHop: true},
			NLRI: ps,
		},
	}
}

func withdraw(d timex.Day, peerIdx int, ps ...netx.Prefix) *mrt.BGP4MPMessage {
	peers := peerTable().Peers
	return &mrt.BGP4MPMessage{
		When:     at(d),
		PeerAS:   peers[peerIdx].AS,
		PeerAddr: peers[peerIdx].Addr,
		LocalAS:  6447,
		Update:   &bgp.Update{Withdrawn: ps},
	}
}

func TestVisibilityLifecycle(t *testing.T) {
	ix := NewIndex()
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx),
		announce(day0+2, 1, bgp.Sequence(64501, 100), pfx),
		withdraw(day0+10, 0, pfx),
		withdraw(day0+20, 1, pfx),
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 100)

	cases := []struct {
		d    timex.Day
		want float64
	}{
		{day0 - 1, 0},
		{day0, 0.5},
		{day0 + 2, 1.0},
		{day0 + 9, 1.0},
		{day0 + 10, 0.5},
		{day0 + 19, 0.5},
		{day0 + 20, 0},
		{day0 + 50, 0},
	}
	for _, c := range cases {
		if got := ix.VisibleFraction(pfx, c.d); got != c.want {
			t.Errorf("VisibleFraction(day0+%d) = %v, want %v", c.d-day0, got, c.want)
		}
	}
	if !ix.Observed(pfx, day0) || ix.Observed(pfx, day0+30) {
		t.Error("Observed transitions wrong")
	}
	if first, ok := ix.FirstObserved(pfx); !ok || first != day0 {
		t.Errorf("FirstObserved = %v,%v", first, ok)
	}
}

func TestRIBDumpSeedsRoutes(t *testing.T) {
	ix := NewIndex()
	dump := &mrt.RIBPrefix{
		When:   at(day0),
		Prefix: pfx,
		Entries: []mrt.RIBEntry{
			{PeerIndex: 0, OriginatedTime: at(day0 - 30), Attrs: bgp.Attrs{Path: bgp.Sequence(64500, 777)}},
			{PeerIndex: 1, OriginatedTime: at(day0 - 30), Attrs: bgp.Attrs{Path: bgp.Sequence(64501, 777)}},
		},
	}
	if err := ix.Load("rv1", []mrt.Record{peerTable(), dump}); err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)
	if got := ix.VisibleFraction(pfx, day0+5); got != 1.0 {
		t.Errorf("VisibleFraction = %v", got)
	}
	if o, ok := ix.OriginAt(pfx, day0+5); !ok || o != 777 {
		t.Errorf("OriginAt = %v,%v", o, ok)
	}
}

func TestRIBBeforePeerIndexFails(t *testing.T) {
	ix := NewIndex()
	dump := &mrt.RIBPrefix{When: at(day0), Prefix: pfx,
		Entries: []mrt.RIBEntry{{PeerIndex: 0}}}
	if err := ix.Load("rv1", []mrt.Record{dump}); err == nil {
		t.Error("RIB before peer index should fail")
	}
}

func TestPeerIndexOutOfRange(t *testing.T) {
	ix := NewIndex()
	dump := &mrt.RIBPrefix{When: at(day0), Prefix: pfx,
		Entries: []mrt.RIBEntry{{PeerIndex: 9}}}
	if err := ix.Load("rv1", []mrt.Record{peerTable(), dump}); err == nil {
		t.Error("out-of-range peer index should fail")
	}
}

func TestOriginChange(t *testing.T) {
	ix := NewIndex()
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 21575, 263692), pfx),
		// Same peer, new path through a different transit, same origin:
		announce(day0+100, 0, bgp.Sequence(64500, 50509, 263692), pfx),
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 200)

	if o, _ := ix.OriginAt(pfx, day0+50); o != 263692 {
		t.Errorf("origin at +50 = %v", o)
	}
	if o, _ := ix.OriginAt(pfx, day0+150); o != 263692 {
		t.Errorf("origin at +150 = %v", o)
	}
	tl := ix.OriginTimeline(pfx)
	if len(tl) != 2 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl[0].Transit != 21575 || tl[1].Transit != 50509 {
		t.Errorf("transits = %v, %v", tl[0].Transit, tl[1].Transit)
	}
	if tl[0].To != day0+100 || tl[1].From != day0+100 {
		t.Errorf("span boundary: %+v", tl)
	}
}

func TestOriginTimelineMergesPeers(t *testing.T) {
	ix := NewIndex()
	path := bgp.Sequence(64500, 3356, 15169)
	path2 := bgp.Sequence(64501, 3356, 15169)
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, path, pfx),
		announce(day0+1, 1, path2, pfx),
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)
	tl := ix.OriginTimeline(pfx)
	if len(tl) != 1 {
		t.Fatalf("same origin+transit from two peers should merge: %+v", tl)
	}
	if tl[0].Origin != 15169 || tl[0].Transit != 3356 {
		t.Errorf("merged span = %+v", tl[0])
	}
}

func TestReannouncementSamePathIsIdempotent(t *testing.T) {
	ix := NewIndex()
	path := bgp.Sequence(64500, 100)
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, path, pfx),
		announce(day0+5, 0, path, pfx), // periodic refresh
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)
	if len(ix.OriginTimeline(pfx)) != 1 {
		t.Errorf("refresh should not split spans: %+v", ix.OriginTimeline(pfx))
	}
}

func TestPeerObservedAndFiltering(t *testing.T) {
	other := netx.MustParsePrefix("198.51.100.0/24")
	ix := NewIndex()
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx, other),
		announce(day0, 1, bgp.Sequence(64501, 100), other), // peer 1 filters pfx
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)

	p0 := PeerRef{Collector: "rv1", Addr: netx.AddrFrom4(203, 0, 113, 1), AS: 64500}
	p1 := PeerRef{Collector: "rv1", Addr: netx.AddrFrom4(203, 0, 113, 2), AS: 64501}
	if !ix.PeerObserved(p0, pfx, day0+1) {
		t.Error("peer0 should observe pfx")
	}
	if ix.PeerObserved(p1, pfx, day0+1) {
		t.Error("peer1 should not observe pfx")
	}
	obs := ix.PeersObserving(pfx, day0+1)
	if len(obs) != 1 || obs[0] != p0 {
		t.Errorf("PeersObserving = %v", obs)
	}
}

func TestAnyOverlapObserved(t *testing.T) {
	ix := NewIndex()
	big := netx.MustParsePrefix("10.0.0.0/8")
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), big),
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)

	if !ix.AnyOverlapObserved(netx.MustParsePrefix("10.5.0.0/16"), day0+1) {
		t.Error("more specific of announced /8 should count as routed")
	}
	if !ix.AnyOverlapObserved(netx.MustParsePrefix("0.0.0.0/4"), day0+1) {
		t.Error("covering aggregate should count as routed")
	}
	if ix.AnyOverlapObserved(netx.MustParsePrefix("11.0.0.0/8"), day0+1) {
		t.Error("disjoint space should not count as routed")
	}
	if ix.AnyOverlapObserved(netx.MustParsePrefix("10.5.0.0/16"), day0+20) {
		t.Error("routed test after close of span")
	}
}

func TestRoutedSpace(t *testing.T) {
	ix := NewIndex()
	a := netx.MustParsePrefix("10.0.0.0/24")
	b := netx.MustParsePrefix("10.0.1.0/24")
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), a, b),
		announce(day0, 1, bgp.Sequence(64501, 100), a),
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)

	all := ix.RoutedSpace(day0+1, 1)
	if all.Len() != 2 {
		t.Errorf("minPeers=1: %v", all.Prefixes())
	}
	strict := ix.RoutedSpace(day0+1, 2)
	if strict.Len() != 1 || !strict.Contains(a) {
		t.Errorf("minPeers=2: %v", strict.Prefixes())
	}
}

func TestMultipleCollectors(t *testing.T) {
	ix := NewIndex()
	if err := ix.Load("rv1", []mrt.Record{peerTable(), announce(day0, 0, bgp.Sequence(64500, 100), pfx)}); err != nil {
		t.Fatal(err)
	}
	// Second collector with a distinct peer.
	pt2 := &mrt.PeerIndexTable{
		When:  at(day0),
		Peers: []mrt.Peer{{Addr: netx.AddrFrom4(203, 0, 113, 9), AS: 65009}},
	}
	ann2 := &mrt.BGP4MPMessage{
		When: at(day0), PeerAS: 65009, PeerAddr: netx.AddrFrom4(203, 0, 113, 9), LocalAS: 6447,
		Update: &bgp.Update{
			Attrs: bgp.Attrs{Path: bgp.Sequence(65009, 100)},
			NLRI:  []netx.Prefix{pfx},
		},
	}
	if err := ix.Load("rv2", []mrt.Record{pt2, ann2}); err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)

	if len(ix.Peers()) != 3 {
		t.Errorf("peers = %v", ix.Peers())
	}
	// Peer 0 of rv1 and the rv2 peer observe; peer 1 of rv1 does not.
	if got := ix.VisibleFraction(pfx, day0+1); got != 2.0/3.0 {
		t.Errorf("fraction across collectors = %v", got)
	}
}

func TestLoadAfterCloseFails(t *testing.T) {
	ix := NewIndex()
	ix.Close(day0)
	if err := ix.Load("rv1", []mrt.Record{peerTable()}); err == nil {
		t.Error("Load after Close should fail")
	}
}

func TestPathAt(t *testing.T) {
	ix := NewIndex()
	path := bgp.Sequence(64500, 50509, 263692)
	if err := ix.Load("rv1", []mrt.Record{peerTable(), announce(day0, 0, path, pfx)}); err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)
	got, ok := ix.PathAt(pfx, day0+1)
	if !ok || !got.Equal(path) {
		t.Errorf("PathAt = %v,%v", got, ok)
	}
	if _, ok := ix.PathAt(pfx, day0+20); ok {
		t.Error("PathAt after withdrawal window")
	}
}

func TestMOASConflicts(t *testing.T) {
	ix := NewIndex()
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx), // origin 100 at peer 0
		announce(day0, 1, bgp.Sequence(64501, 200), pfx), // origin 200 at peer 1
		announce(day0, 0, bgp.Sequence(64500, 300), netx.MustParsePrefix("198.51.100.0/24")),
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)

	conflicts := ix.MOASConflicts(day0 + 1)
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	if conflicts[0].Prefix != pfx || len(conflicts[0].Origins) != 2 {
		t.Errorf("conflict = %+v", conflicts[0])
	}
	if conflicts[0].Origins[0] != 100 || conflicts[0].Origins[1] != 200 {
		t.Errorf("origins unsorted: %v", conflicts[0].Origins)
	}
	if got := ix.MOASConflicts(day0 - 1); len(got) != 0 {
		t.Errorf("conflicts before announcements: %+v", got)
	}
}

func TestByOrigin(t *testing.T) {
	ix := NewIndex()
	other := netx.MustParsePrefix("198.51.100.0/24")
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		// other sorts after pfx but is interned first: the sweep must
		// list prefixes in address order, not arrival order.
		announce(day0, 0, bgp.Sequence(64500, 100), other),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx),
		announce(day0+5, 1, bgp.Sequence(64501, 100), pfx), // same origin, second peer and transit
		announce(day0+7, 1, bgp.Sequence(64501, 200), other),
		withdraw(day0+10, 0, pfx),
		withdraw(day0+10, 1, pfx),
		withdraw(day0+8, 1, other),
		withdraw(day0+20, 0, other),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[bgp.ASN]*OriginActivity{
		100: {Origin: 100, Prefixes: []netx.Prefix{pfx, other}, OriginatedDays: 35, SpanDays: []int32{5, 10, 20}},
		200: {Origin: 200, Prefixes: []netx.Prefix{other}, OriginatedDays: 1, SpanDays: []int32{1}},
	}
	ix.Close(day0 + 100)
	if got := ix.ByOrigin(); !reflect.DeepEqual(got, want) {
		t.Errorf("ByOrigin: %+v %+v", got[100], got[200])
	}
}

// TestUnclosedIndexAnswersEmpty pins the one query path: an Index
// answers from the columnar store Close builds, so before Close every
// Querier method reports nothing observed — even with routes merged
// and live on the day asked. Peers and NumPeers report the registered
// peer table, which is not an observation. After Close the same calls
// see the routes.
func TestUnclosedIndexAnswersEmpty(t *testing.T) {
	ix := NewIndex()
	if err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx),
		announce(day0, 1, bgp.Sequence(64501, 200), pfx),
	}); err != nil {
		t.Fatal(err)
	}
	d := day0 + 1
	ref := PeerRef{Collector: "rv1", Addr: peerTable().Peers[0].Addr, AS: 64500}
	check := func(q Querier, closed bool) {
		t.Helper()
		if got := q.NumPeers(); got != 2 || len(q.Peers()) != 2 {
			t.Errorf("closed=%v: NumPeers = %d, Peers = %d, want the 2 registered", closed, got, len(q.Peers()))
		}
		var got []bool
		got = append(got,
			q.NumPrefixes() > 0,
			len(q.Prefixes()) > 0,
			q.VisibleCount(pfx, d) > 0,
			q.VisibleFraction(pfx, d) > 0,
			q.Observed(pfx, d),
			q.PeerObserved(ref, pfx, d),
			len(q.PeersObserving(pfx, d)) > 0,
			len(q.OriginTimeline(pfx)) > 0,
			q.AnyOverlapObserved(pfx, d),
			q.RoutedSpace(d, 1).Len() > 0,
			len(q.MOASConflicts(d)) > 0,
			len(q.ByOrigin()) > 0,
		)
		_, ok := q.OriginAt(pfx, d)
		got = append(got, ok)
		_, ok = q.PathAt(pfx, d)
		got = append(got, ok)
		_, ok = q.FirstObserved(pfx)
		got = append(got, ok)
		for i, observed := range got {
			if observed != closed {
				t.Errorf("closed=%v: query %d observed=%v", closed, i, observed)
			}
		}
	}
	check(ix, false)
	ix.Close(day0 + 10)
	check(ix, true)
}

// TestByOriginSpanDays checks the one-sweep span lengths against the
// derivation they replace: one OriginTimeline per (origin, prefix).
// TestShardedByteIdentical holds the sharded sweep to this one.
func TestByOriginSpanDays(t *testing.T) {
	ix := buildShardTestIndex(t)
	acts := ix.ByOrigin()
	if len(acts) == 0 {
		t.Fatal("no origins")
	}
	for origin, act := range acts {
		var want []int32
		for _, p := range act.Prefixes {
			for _, s := range ix.OriginTimeline(p) {
				if s.Origin == origin {
					want = append(want, int32(s.To-s.From))
				}
			}
		}
		slices.Sort(want)
		if !slices.Equal(act.SpanDays, want) {
			t.Errorf("AS%d SpanDays = %v, want %v", origin, act.SpanDays, want)
		}
	}
}
