package ribsnap

import (
	"reflect"
	"slices"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// moasReference derives day d's MOAS conflicts from each prefix's
// merged origination timeline, collecting origins in a map: a route to
// the answer independent of MOASConflicts' per-peer sweep.
func moasReference(q rib.Querier, d timex.Day) []rib.MOAS {
	var out []rib.MOAS
	for _, p := range q.Prefixes() {
		seen := make(map[bgp.ASN]bool)
		for _, s := range q.OriginTimeline(p) {
			if s.From <= d && d < s.To {
				seen[s.Origin] = true
			}
		}
		if len(seen) < 2 {
			continue
		}
		m := rib.MOAS{Prefix: p}
		for o := range seen {
			m.Origins = append(m.Origins, o)
		}
		slices.Sort(m.Origins)
		out = append(out, m)
	}
	return out
}

// TestMOASConflictsMatchReference: on every day of randomized worlds,
// and a few outside their windows, the resident index and its sharded
// fan-outs report exactly the reference's conflicts, origins sorted.
func TestMOASConflictsMatchReference(t *testing.T) {
	conflicts := 0
	for seed := uint64(1); seed <= 8; seed++ {
		ix, window := randomIndex(t, seed)
		queriers := []rib.Querier{ix}
		for _, k := range []int{2, 5} {
			fs, err := ix.FrozenShards(k, 0)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := rib.ShardedFromFrozen(fs, 2)
			if err != nil {
				t.Fatal(err)
			}
			queriers = append(queriers, sh)
		}
		for d := window.First - 3; d <= window.Last+3; d++ {
			want := moasReference(ix, d)
			conflicts += len(want)
			for i, q := range queriers {
				if got := q.MOASConflicts(d); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d day %v querier %d: MOASConflicts = %v, want %v", seed, d, i, got, want)
				}
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("the randomized worlds hold no MOAS conflict; the comparison is vacuous")
	}
}
