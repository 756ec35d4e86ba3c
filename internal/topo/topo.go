// Package topo models an AS-level Internet topology with customer-
// provider and peer-peer relationships and computes valley-free
// (Gao-Rexford) best paths from every AS toward an injection point.
// The routeviews package uses these paths to synthesize the AS paths
// that collector peers would report for each announcement.
package topo

import (
	"fmt"
	"slices"
	"sort"

	"dropscope/internal/bgp"
)

// Rel is a business relationship between two ASes.
type Rel uint8

// Relationship kinds.
const (
	// ProviderOf: the first AS is the provider of the second.
	ProviderOf Rel = iota
	// PeerWith: settlement-free peering.
	PeerWith
)

// Graph is an AS-level topology. The zero value is empty and ready to use.
type Graph struct {
	providers map[bgp.ASN][]bgp.ASN // customer -> providers
	customers map[bgp.ASN][]bgp.ASN // provider -> customers
	peers     map[bgp.ASN][]bgp.ASN
	asns      map[bgp.ASN]bool
}

func (g *Graph) init() {
	if g.asns == nil {
		g.providers = make(map[bgp.ASN][]bgp.ASN)
		g.customers = make(map[bgp.ASN][]bgp.ASN)
		g.peers = make(map[bgp.ASN][]bgp.ASN)
		g.asns = make(map[bgp.ASN]bool)
	}
}

// AddAS registers an AS with no links (isolated until linked).
func (g *Graph) AddAS(a bgp.ASN) {
	g.init()
	g.asns[a] = true
}

// Link records a relationship between a and b. For ProviderOf, a is the
// provider and b the customer. Duplicate links are idempotent.
func (g *Graph) Link(a, b bgp.ASN, rel Rel) error {
	if a == b {
		return fmt.Errorf("topo: self link on %s", a)
	}
	g.init()
	g.asns[a], g.asns[b] = true, true
	switch rel {
	case ProviderOf:
		if !slices.Contains(g.customers[a], b) {
			g.customers[a] = append(g.customers[a], b)
			g.providers[b] = append(g.providers[b], a)
		}
	case PeerWith:
		if !slices.Contains(g.peers[a], b) {
			g.peers[a] = append(g.peers[a], b)
			g.peers[b] = append(g.peers[b], a)
		}
	default:
		return fmt.Errorf("topo: unknown relationship %d", rel)
	}
	return nil
}

// Has reports whether the AS is part of the graph.
func (g *Graph) Has(a bgp.ASN) bool { return g.asns[a] }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.asns) }

// ASes returns all ASes in ascending order.
func (g *Graph) ASes() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(g.asns))
	for a := range g.asns {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// routeKind orders route preference: customer-learned beats peer-learned
// beats provider-learned (Gao-Rexford export economics).
type routeKind uint8

const (
	fromNone routeKind = iota
	fromProvider
	fromPeer
	fromCustomer
	fromSelf
)

type best struct {
	kind routeKind
	path []bgp.ASN // from this AS to the injector, inclusive
}

// better reports whether candidate (kind, path) beats current b.
func (b best) better(kind routeKind, path []bgp.ASN) bool {
	if kind != b.kind {
		return kind > b.kind
	}
	if len(path) != len(b.path) {
		return len(path) < len(b.path)
	}
	// Deterministic tie-break: lexicographically smaller path wins.
	for i := range path {
		if path[i] != b.path[i] {
			return path[i] < b.path[i]
		}
	}
	return false
}

// betterCand is better() for the candidate path head∘tail, compared
// in place so the fixpoint loops only materialize a path when a route
// is actually adopted — almost all candidates lose.
func (b best) betterCand(kind routeKind, head bgp.ASN, tail []bgp.ASN) bool {
	if kind != b.kind {
		return kind > b.kind
	}
	if len(tail)+1 != len(b.path) {
		return len(tail)+1 < len(b.path)
	}
	if head != b.path[0] {
		return head < b.path[0]
	}
	for i, v := range tail {
		if v != b.path[i+1] {
			return v < b.path[i+1]
		}
	}
	return false
}

func prepend(head bgp.ASN, tail []bgp.ASN) []bgp.ASN {
	out := make([]bgp.ASN, len(tail)+1)
	out[0] = head
	copy(out[1:], tail)
	return out
}

// PathsFrom computes every AS's valley-free best path toward injector.
// The returned map gives, for each AS that can reach the injector, the
// AS-level path starting at that AS and ending at injector. The injector
// maps to the single-element path [injector].
//
// Propagation follows Gao-Rexford: routes learned from customers are
// exported to everyone; routes learned from peers or providers are
// exported only to customers. Preference: customer > peer > provider,
// then shortest path, then lowest next hop.
func (g *Graph) PathsFrom(injector bgp.ASN) map[bgp.ASN][]bgp.ASN {
	g.init()
	if !g.asns[injector] {
		return nil
	}
	state := map[bgp.ASN]best{injector: {kind: fromSelf, path: []bgp.ASN{injector}}}

	// Stage 1: customer routes climb provider chains. Iterate to fixpoint
	// (the provider DAG may be deep); each AS adopts the best
	// customer-learned route.
	changed := true
	for changed {
		changed = false
		for asn, st := range state {
			if st.kind < fromCustomer {
				continue // only customer-learned/self routes climb
			}
			for _, prov := range g.providers[asn] {
				if cur, ok := state[prov]; !ok || cur.betterCand(fromCustomer, prov, st.path) {
					state[prov] = best{kind: fromCustomer, path: prepend(prov, st.path)}
					changed = true
				}
			}
		}
	}

	// Stage 2: one peer hop. Any AS holding a customer/self route exports
	// it to its peers.
	peerAdds := make(map[bgp.ASN]best)
	for asn, st := range state {
		if st.kind < fromCustomer {
			continue
		}
		for _, peer := range g.peers[asn] {
			if cur, ok := state[peer]; ok && !cur.betterCand(fromPeer, peer, st.path) {
				continue
			}
			if prev, ok := peerAdds[peer]; ok && !prev.betterCand(fromPeer, peer, st.path) {
				continue
			}
			peerAdds[peer] = best{kind: fromPeer, path: prepend(peer, st.path)}
		}
	}
	for asn, st := range peerAdds {
		if cur, ok := state[asn]; !ok || cur.better(st.kind, st.path) {
			state[asn] = st
		}
	}

	// Stage 3: routes descend customer cones. Everyone exports their best
	// route to customers; iterate to fixpoint.
	changed = true
	for changed {
		changed = false
		for asn, st := range state {
			for _, cust := range g.customers[asn] {
				cur, ok := state[cust]
				if !ok || cur.betterCand(fromProvider, cust, st.path) {
					state[cust] = best{kind: fromProvider, path: prepend(cust, st.path)}
					changed = true
				}
			}
		}
	}

	out := make(map[bgp.ASN][]bgp.ASN, len(state))
	for asn, st := range state {
		out[asn] = st.path
	}
	return out
}
