package topo

import (
	"testing"

	"dropscope/internal/bgp"
)

// buildChain: T1 is a tier-1; T1 -> P1 -> C1 (provider chains), plus T1
// peers with T2, which is provider of P2 -> C2.
//
//	T1(10) ===peer=== T2(20)
//	  |                 |
//	 P1(11)            P2(21)
//	  |                 |
//	 C1(12)            C2(22)
func buildChain(t *testing.T) *Graph {
	t.Helper()
	var g Graph
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Link(10, 11, ProviderOf))
	must(g.Link(11, 12, ProviderOf))
	must(g.Link(20, 21, ProviderOf))
	must(g.Link(21, 22, ProviderOf))
	must(g.Link(10, 20, PeerWith))
	return &g
}

func pathEq(got []bgp.ASN, want ...bgp.ASN) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestUphillPropagation(t *testing.T) {
	g := buildChain(t)
	paths := g.PathsFrom(12) // origin at the bottom of the left chain
	if !pathEq(paths[12], 12) {
		t.Errorf("self path = %v", paths[12])
	}
	if !pathEq(paths[11], 11, 12) {
		t.Errorf("P1 path = %v", paths[11])
	}
	if !pathEq(paths[10], 10, 11, 12) {
		t.Errorf("T1 path = %v", paths[10])
	}
	// Across the peering edge and down the right chain.
	if !pathEq(paths[20], 20, 10, 11, 12) {
		t.Errorf("T2 path = %v", paths[20])
	}
	if !pathEq(paths[22], 22, 21, 20, 10, 11, 12) {
		t.Errorf("C2 path = %v", paths[22])
	}
}

func TestValleyFree(t *testing.T) {
	// A route learned from a provider must not be re-exported to a peer:
	// make C1 also peer with C2. The path from C2's side to origin at T1
	// must not take the C1—C2 peering shortcut, because C1's route to T1
	// is provider-learned.
	g := buildChain(t)
	if err := g.Link(12, 22, PeerWith); err != nil {
		t.Fatal(err)
	}
	paths := g.PathsFrom(10) // origin at T1
	// C2's valid path climbs to T2 and crosses the T1–T2 peering.
	if !pathEq(paths[22], 22, 21, 20, 10) {
		t.Errorf("C2 path = %v (valley through C1 forbidden)", paths[22])
	}
}

func TestPeerShortcutUsedWhenValid(t *testing.T) {
	// Origin at C1: C2 may use the C1—C2 peering since C1's route is its
	// own (exportable to peers).
	g := buildChain(t)
	if err := g.Link(12, 22, PeerWith); err != nil {
		t.Fatal(err)
	}
	paths := g.PathsFrom(12)
	if !pathEq(paths[22], 22, 12) {
		t.Errorf("C2 path = %v, want direct peering", paths[22])
	}
}

func TestCustomerPreferredOverPeer(t *testing.T) {
	// T1 can reach origin both via its customer chain and via its peer
	// T2; the customer route must win even if same length.
	var g Graph
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Link(10, 11, ProviderOf)) // T1 -> P1
	must(g.Link(20, 11, ProviderOf)) // T2 -> P1 (multihomed customer)
	must(g.Link(10, 20, PeerWith))
	paths := g.PathsFrom(11)
	if !pathEq(paths[10], 10, 11) {
		t.Errorf("T1 path = %v, want direct customer route", paths[10])
	}
}

func TestUnreachableAndUnknown(t *testing.T) {
	g := buildChain(t)
	g.AddAS(99) // isolated
	paths := g.PathsFrom(12)
	if _, ok := paths[99]; ok {
		t.Error("isolated AS should have no path")
	}
	if got := g.PathsFrom(1234); got != nil {
		t.Errorf("unknown injector should return nil, got %v", got)
	}
	if len(paths[22]) == 0 {
		t.Error("AS22 should have a valley-free route")
	}
}

func TestSelfLinkRejected(t *testing.T) {
	var g Graph
	if err := g.Link(5, 5, ProviderOf); err == nil {
		t.Error("self link should fail")
	}
	if err := g.Link(5, 6, Rel(99)); err == nil {
		t.Error("unknown relationship should fail")
	}
}

func TestIdempotentLinks(t *testing.T) {
	var g Graph
	for i := 0; i < 3; i++ {
		if err := g.Link(1, 2, ProviderOf); err != nil {
			t.Fatal(err)
		}
		if err := g.Link(1, 3, PeerWith); err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
	paths := g.PathsFrom(2)
	if !pathEq(paths[1], 1, 2) {
		t.Errorf("duplicate links changed path: %v", paths[1])
	}
}

func TestASesSorted(t *testing.T) {
	g := buildChain(t)
	asns := g.ASes()
	for i := 1; i < len(asns); i++ {
		if asns[i-1] >= asns[i] {
			t.Fatalf("ASes not sorted: %v", asns)
		}
	}
	if !g.Has(10) || g.Has(1000) {
		t.Error("Has misreports")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-kind equal-length paths: lower next hop must win, and
	// repeated runs must agree.
	var g Graph
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Link(11, 1, ProviderOf)) // 11 -> 1
	must(g.Link(12, 1, ProviderOf)) // 12 -> 1
	must(g.Link(30, 11, ProviderOf))
	must(g.Link(30, 12, ProviderOf))
	var firstPath []bgp.ASN
	for i := 0; i < 10; i++ {
		paths := g.PathsFrom(1)
		if i == 0 {
			firstPath = paths[30]
			if !pathEq(firstPath, 30, 11, 1) {
				t.Fatalf("tie break: %v", firstPath)
			}
		} else if !pathEq(paths[30], firstPath...) {
			t.Fatalf("nondeterministic: %v vs %v", paths[30], firstPath)
		}
	}
}

func TestLargeConeFixpoint(t *testing.T) {
	// A 100-deep provider chain must converge and produce correct depth.
	var g Graph
	for i := 0; i < 100; i++ {
		if err := g.Link(bgp.ASN(i), bgp.ASN(i+1), ProviderOf); err != nil {
			t.Fatal(err)
		}
	}
	paths := g.PathsFrom(100) // bottom of the chain
	if got := len(paths[0]); got != 101 {
		t.Errorf("top-of-chain path length = %d", got)
	}
}
