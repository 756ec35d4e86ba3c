package drop

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// referenceDiffListings is the straightforward diff: a fresh map of the
// day's entries for every snapshot (the last entry for a prefix wins),
// compared against the open listings to find removals and additions.
func referenceDiffListings(a *Archive) []Listing {
	type open struct {
		added  timex.Day
		sblRef string
	}
	current := make(map[netx.Prefix]open)
	var out []Listing
	for _, day := range a.days {
		next := make(map[netx.Prefix]string, len(a.byDay[day]))
		for _, e := range a.byDay[day] {
			next[e.Prefix] = e.SBLRef
		}
		for p, o := range current {
			if _, still := next[p]; !still {
				out = append(out, Listing{Prefix: p, SBLRef: o.sblRef, Added: o.added, Removed: day, HasRemoved: true})
				delete(current, p)
			}
		}
		for p, ref := range next {
			if _, already := current[p]; !already {
				current[p] = open{added: day, sblRef: ref}
			}
		}
	}
	for p, o := range current {
		out = append(out, Listing{Prefix: p, SBLRef: o.sblRef, Added: o.added})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Added != out[j].Added {
			return out[i].Added < out[j].Added
		}
		return out[i].Prefix.Compare(out[j].Prefix) < 0
	})
	return out
}

// TestDiffListingsMatchesReference drives random snapshot sequences
// through the one-pass diff and the map-per-day reference. The
// sequences list a prefix twice in one day with different SBL refs
// (the day's last ref wins), remove and relist prefixes, and hold empty
// days.
func TestDiffListingsMatchesReference(t *testing.T) {
	day0 := timex.MustParseDay("2020-01-01")
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]netx.Prefix, 1+rng.Intn(8))
		for i := range pool {
			pool[i] = netx.PrefixFrom(netx.AddrFrom4(10, byte(seed), byte(i), 0), 24)
		}
		a := NewArchive()
		day := day0
		for n := rng.Intn(30); n > 0; n-- {
			day += timex.Day(1 + rng.Intn(3))
			var entries []Entry
			if rng.Intn(6) != 0 { // else an empty day
				for _, p := range pool {
					if rng.Intn(3) == 0 {
						continue
					}
					for dup := 1 + rng.Intn(2); dup > 0; dup-- {
						entries = append(entries, Entry{Prefix: p, SBLRef: fmt.Sprintf("SBL%d", rng.Intn(4))})
					}
				}
				rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			}
			if err := a.AddSnapshot(day, entries); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := a.diffListings(), referenceDiffListings(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestDiffListingsSameDayRef pins the case the random sequences hit only
// by chance: a prefix listed twice on its first day keeps the later
// ref, and a second listing on a later day changes nothing.
func TestDiffListingsSameDayRef(t *testing.T) {
	a := NewArchive()
	for i, entries := range [][]Entry{
		{e("10.0.0.0/24", "SBL1"), e("10.0.0.0/24", "SBL2")},
		{e("10.0.0.0/24", "SBL3"), e("10.0.0.0/24", "SBL4")},
		{},
		{e("10.0.0.0/24", "SBL5"), e("10.0.0.0/24", "SBL6")},
	} {
		if err := a.AddSnapshot(d0+timex.Day(i), entries); err != nil {
			t.Fatal(err)
		}
	}
	p := netx.MustParsePrefix("10.0.0.0/24")
	want := []Listing{
		{Prefix: p, SBLRef: "SBL2", Added: d0, Removed: d0 + 2, HasRemoved: true},
		{Prefix: p, SBLRef: "SBL6", Added: d0 + 3},
	}
	if got := a.Listings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Listings = %+v, want %+v", got, want)
	}
}
