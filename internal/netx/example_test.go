package netx_test

import (
	"fmt"

	"dropscope/internal/netx"
)

// ExampleTrie_LongestMatch shows longest-prefix matching, the join
// underlying every archive correlation in the pipeline.
func ExampleTrie_LongestMatch() {
	var t netx.Trie[string]
	t.Insert(netx.MustParsePrefix("10.0.0.0/8"), "aggregate")
	t.Insert(netx.MustParsePrefix("10.1.0.0/16"), "customer")

	pfx, val, _ := t.LongestMatch(netx.MustParsePrefix("10.1.2.0/24"))
	fmt.Println(pfx, val)
	pfx, val, _ = t.LongestMatch(netx.MustParsePrefix("10.9.0.0/16"))
	fmt.Println(pfx, val)
	// Output:
	// 10.1.0.0/16 customer
	// 10.0.0.0/8 aggregate
}

// ExampleSlashEquivalents shows the /8-equivalent accounting used for
// the paper's address-space figures.
func ExampleSlashEquivalents() {
	ps := []netx.Prefix{
		netx.MustParsePrefix("41.0.0.0/8"),
		netx.MustParsePrefix("41.0.0.0/16"), // nested: no double count
		netx.MustParsePrefix("102.0.0.0/9"),
	}
	n := netx.NewSortedSet(ps).AddrCount()
	fmt.Printf("%.1f /8 equivalents\n", netx.SlashEquivalents(n, 8))
	// Output:
	// 1.5 /8 equivalents
}
