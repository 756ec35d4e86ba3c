package rib

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// collectorStream builds a deterministic synthetic stream for collector i:
// two peers, a RIB dump seeding a shared prefix, then announce/withdraw
// churn over collector-specific prefixes plus a prefix every collector
// announces (so MOAS and visibility queries cross collector boundaries).
func collectorStream(i int) (string, []mrt.Record) {
	name := fmt.Sprintf("route-views%d", i)
	peerA := mrt.Peer{Addr: netx.AddrFrom4(203, 0, 113, byte(2*i+1)), AS: bgp.ASN(64500 + 2*i)}
	peerB := mrt.Peer{Addr: netx.AddrFrom4(203, 0, 113, byte(2*i+2)), AS: bgp.ASN(64501 + 2*i)}
	shared := netx.MustParsePrefix("192.0.2.0/24")
	own := netx.PrefixFrom(netx.AddrFrom4(10, byte(i), 0, 0), 16)

	recs := []mrt.Record{
		&mrt.PeerIndexTable{When: at(day0), Peers: []mrt.Peer{peerA, peerB}},
		&mrt.RIBPrefix{When: at(day0), Prefix: shared,
			Entries: []mrt.RIBEntry{{PeerIndex: 0, OriginatedTime: at(day0 - 10),
				Attrs: bgp.Attrs{Path: bgp.Sequence(peerA.AS, 100)}}}},
	}
	ann := func(d timex.Day, p mrt.Peer, path bgp.ASPath, ps ...netx.Prefix) mrt.Record {
		return &mrt.BGP4MPMessage{When: at(d), PeerAS: p.AS, PeerAddr: p.Addr, LocalAS: 6447,
			Update: &bgp.Update{Attrs: bgp.Attrs{Path: path}, NLRI: ps}}
	}
	wdr := func(d timex.Day, p mrt.Peer, ps ...netx.Prefix) mrt.Record {
		return &mrt.BGP4MPMessage{When: at(d), PeerAS: p.AS, PeerAddr: p.Addr, LocalAS: 6447,
			Update: &bgp.Update{Withdrawn: ps}}
	}
	recs = append(recs,
		ann(day0+1, peerB, bgp.Sequence(peerB.AS, bgp.ASN(200+i)), shared), // distinct origin: MOAS
		ann(day0+2, peerA, bgp.Sequence(peerA.AS, bgp.ASN(300+i)), own),
		ann(day0+5, peerB, bgp.Sequence(peerB.AS, 3356, bgp.ASN(300+i)), own),
		wdr(day0+10+timex.Day(i), peerA, own),
		ann(day0+20, peerA, bgp.Sequence(peerA.AS, 6939, bgp.ASN(300+i)), own), // origin kept, transit changed
	)
	return name, recs
}

func buildSerial(t testing.TB, n int) *Index {
	t.Helper()
	ix := NewIndex()
	for i := 0; i < n; i++ {
		name, recs := collectorStream(i)
		if err := ix.Load(name, recs); err != nil {
			t.Fatal(err)
		}
	}
	ix.Close(day0 + 100)
	return ix
}

func buildParallel(t testing.TB, n int) *Index {
	t.Helper()
	ribs := make([]*CollectorRIB, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name, recs := collectorStream(i)
			c, err := LoadCollector(name, &records{recs: recs}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			ribs[i] = c
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("collector load failed")
	}
	ix := NewIndex()
	for _, c := range ribs { // merge in load order == sorted collector order
		if err := ix.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	ix.Close(day0 + 100)
	return ix
}

// TestMergeMatchesSerialLoad is the determinism guarantee the parallel
// analysis loader relies on: concurrently built CollectorRIBs merged in
// collector order answer every query identically to serial Load calls.
func TestMergeMatchesSerialLoad(t *testing.T) {
	const n = 6
	serial := buildSerial(t, n)
	parallel := buildParallel(t, n)

	if !reflect.DeepEqual(serial.Peers(), parallel.Peers()) {
		t.Fatalf("peer order diverged:\nserial   %v\nparallel %v", serial.Peers(), parallel.Peers())
	}
	sp, pp := serial.Prefixes(), parallel.Prefixes()
	if !reflect.DeepEqual(sp, pp) {
		t.Fatalf("prefix sets diverged:\nserial   %v\nparallel %v", sp, pp)
	}
	for _, p := range sp {
		if !reflect.DeepEqual(serial.OriginTimeline(p), parallel.OriginTimeline(p)) {
			t.Errorf("%s: timelines diverged:\nserial   %+v\nparallel %+v",
				p, serial.OriginTimeline(p), parallel.OriginTimeline(p))
		}
		for _, d := range []timex.Day{day0 - 1, day0 + 1, day0 + 6, day0 + 15, day0 + 50} {
			if s, q := serial.VisibleFraction(p, d), parallel.VisibleFraction(p, d); s != q {
				t.Errorf("%s day %v: VisibleFraction %v != %v", p, d, s, q)
			}
			if !reflect.DeepEqual(serial.PeersObserving(p, d), parallel.PeersObserving(p, d)) {
				t.Errorf("%s day %v: PeersObserving diverged", p, d)
			}
			so, sok := serial.OriginAt(p, d)
			po, pok := parallel.OriginAt(p, d)
			if so != po || sok != pok {
				t.Errorf("%s day %v: OriginAt (%v,%v) != (%v,%v)", p, d, so, sok, po, pok)
			}
		}
	}
	if !reflect.DeepEqual(serial.MOASConflicts(day0+3), parallel.MOASConflicts(day0+3)) {
		t.Error("MOAS conflicts diverged")
	}
	sAct, pAct := serial.ByOrigin(), parallel.ByOrigin()
	if len(sAct) != len(pAct) {
		t.Fatalf("ByOrigin sizes: %d != %d", len(sAct), len(pAct))
	}
	for o, a := range sAct {
		if !reflect.DeepEqual(a, pAct[o]) {
			t.Errorf("origin %v: activity diverged: %+v != %+v", o, a, pAct[o])
		}
	}
}

// TestMergeSameCollectorTwice checks Merge reuses peer ids and appends
// spans exactly like loading the same collector twice serially does.
func TestMergeSameCollectorTwice(t *testing.T) {
	name, recs := collectorStream(0)

	serial := NewIndex()
	if err := serial.Load(name, recs); err != nil {
		t.Fatal(err)
	}
	if err := serial.Load(name, recs); err != nil {
		t.Fatal(err)
	}
	serial.Close(day0 + 100)

	merged := NewIndex()
	for i := 0; i < 2; i++ {
		c, err := LoadCollector(name, &records{recs: recs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	merged.Close(day0 + 100)

	if !reflect.DeepEqual(serial.Peers(), merged.Peers()) {
		t.Fatalf("peers diverged: %v != %v", serial.Peers(), merged.Peers())
	}
	for _, p := range serial.Prefixes() {
		if !reflect.DeepEqual(serial.OriginTimeline(p), merged.OriginTimeline(p)) {
			t.Errorf("%s: timelines diverged", p)
		}
	}
}

func TestMergeAfterCloseFails(t *testing.T) {
	name, recs := collectorStream(0)
	c, err := LoadCollector(name, &records{recs: recs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	ix.Close(day0)
	if err := ix.Merge(c); err == nil {
		t.Error("Merge after Close should fail")
	}
}

// TestConcurrentReaders hammers every query method from many goroutines
// after Close; run under -race this proves the post-Close index is
// read-only (including the covering trie, which Close now builds eagerly).
func TestConcurrentReaders(t *testing.T) {
	ix := buildSerial(t, 4)
	prefixes := ix.Prefixes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, p := range prefixes {
				d := day0 + timex.Day(g%7)
				ix.VisibleFraction(p, d)
				ix.Observed(p, d)
				ix.OriginAt(p, d)
				ix.PathAt(p, d)
				ix.OriginTimeline(p)
				ix.FirstObserved(p)
				ix.PeersObserving(p, d)
				ix.AnyOverlapObserved(p, d)
			}
			ix.RoutedSpace(day0+timex.Day(g), 1)
			ix.MOASConflicts(day0 + timex.Day(g))
			ix.ByOrigin()
		}(g)
	}
	wg.Wait()
}

// TestLoadCollectorErrorsMatchLoad keeps the parallel loader's error
// strings identical to the serial path's.
func TestLoadCollectorErrorsMatchLoad(t *testing.T) {
	bad := []mrt.Record{&mrt.RIBPrefix{When: at(day0), Prefix: pfx,
		Entries: []mrt.RIBEntry{{PeerIndex: 0}}}}
	_, errC := LoadCollector("rv1", &records{recs: bad}, nil)
	errL := NewIndex().Load("rv1", bad)
	if errC == nil || errL == nil {
		t.Fatal("both paths should fail")
	}
	if errC.Error() != errL.Error() {
		t.Errorf("error strings diverged: %q != %q", errC, errL)
	}
}
