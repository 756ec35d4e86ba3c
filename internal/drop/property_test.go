package drop

import (
	"math/rand"
	"testing"

	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// TestListingsReconstructSchedule drives the archive with a random
// add/remove schedule and verifies Listings() recovers exactly the
// schedule's intervals.
func TestListingsReconstructSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	day0 := timex.MustParseDay("2020-01-01")

	for trial := 0; trial < 25; trial++ {
		type interval struct {
			p          netx.Prefix
			add, del   timex.Day
			hasRemoved bool
		}
		// Build non-overlapping stays for each of a set of prefixes.
		var want []interval
		prefixes := make([]netx.Prefix, 12)
		for i := range prefixes {
			prefixes[i] = netx.PrefixFrom(netx.AddrFrom4(10, byte(trial), byte(i), 0), 24)
		}
		for _, p := range prefixes {
			cursor := day0 + timex.Day(rng.Intn(10))
			stays := 1 + rng.Intn(3)
			for s := 0; s < stays; s++ {
				add := cursor + timex.Day(rng.Intn(20))
				dur := timex.Day(1 + rng.Intn(30))
				iv := interval{p: p, add: add, del: add + dur, hasRemoved: true}
				if s == stays-1 && rng.Intn(2) == 0 {
					iv.hasRemoved = false // still listed at the end
				}
				want = append(want, iv)
				cursor = iv.del + 1
				if !iv.hasRemoved {
					break
				}
			}
		}

		// Materialize snapshots on every day membership changes.
		changes := make(map[timex.Day]bool)
		for _, iv := range want {
			changes[iv.add] = true
			if iv.hasRemoved {
				changes[iv.del] = true
			}
		}
		var days []timex.Day
		for d := range changes {
			days = append(days, d)
		}
		// Sort days.
		for i := 1; i < len(days); i++ {
			for j := i; j > 0 && days[j] < days[j-1]; j-- {
				days[j], days[j-1] = days[j-1], days[j]
			}
		}

		a := NewArchive()
		for _, d := range days {
			var entries []Entry
			for _, iv := range want {
				if d >= iv.add && (!iv.hasRemoved || d < iv.del) {
					entries = append(entries, Entry{Prefix: iv.p})
				}
			}
			if err := a.AddSnapshot(d, entries); err != nil {
				t.Fatal(err)
			}
		}

		got := a.Listings()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d listings, want %d", trial, len(got), len(want))
		}
		// Index expected intervals by (prefix, add).
		type key struct {
			p   netx.Prefix
			add timex.Day
		}
		wantBy := make(map[key]interval)
		for _, iv := range want {
			wantBy[key{iv.p, iv.add}] = iv
		}
		for _, l := range got {
			iv, ok := wantBy[key{l.Prefix, l.Added}]
			if !ok {
				t.Fatalf("trial %d: unexpected listing %+v", trial, l)
			}
			if l.HasRemoved != iv.hasRemoved {
				t.Fatalf("trial %d: %v removal flag = %v, want %v", trial, l.Prefix, l.HasRemoved, iv.hasRemoved)
			}
			if iv.hasRemoved && l.Removed != iv.del {
				t.Fatalf("trial %d: %v removed %v, want %v", trial, l.Prefix, l.Removed, iv.del)
			}
		}
	}
}

// TestListedAtMatchesListings holds ListedAt, the daemon's /v1/drop
// answer, to the listing intervals Listings diffs out of the same
// snapshots: a prefix is listed on day d iff one of its listings has
// Added <= d < Removed. Snapshots land on sparse days, so most days
// fall between two snapshots, and a prefix can leave and come back.
// Each listing's own boundary days are probed explicitly.
func TestListedAtMatchesListings(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	day0 := timex.MustParseDay("2020-01-01")
	for trial := 0; trial < 20; trial++ {
		prefixes := make([]netx.Prefix, 8)
		for i := range prefixes {
			prefixes[i] = netx.PrefixFrom(netx.AddrFrom4(10, byte(trial), byte(i), 0), 24)
		}
		a := NewArchive()
		day := day0
		for s := 0; s < 15; s++ {
			day += timex.Day(1 + rng.Intn(6))
			var entries []Entry
			for _, p := range prefixes {
				if rng.Intn(3) > 0 {
					entries = append(entries, Entry{Prefix: p})
				}
			}
			if err := a.AddSnapshot(day, entries); err != nil {
				t.Fatal(err)
			}
		}
		last := day

		listings := a.Listings()
		inListing := func(p netx.Prefix, d timex.Day) bool {
			for _, l := range listings {
				if l.Prefix == p && l.Added <= d && (!l.HasRemoved || d < l.Removed) {
					return true
				}
			}
			return false
		}
		for _, p := range append(prefixes, netx.MustParsePrefix("203.0.113.0/24")) {
			for d := day0 - 1; d <= last+1; d++ {
				if got, want := a.ListedAt(p, d), inListing(p, d); got != want {
					t.Fatalf("trial %d: ListedAt(%v, %v) = %v, listings say %v", trial, p, d, got, want)
				}
			}
		}
		type probe struct {
			d    timex.Day
			want bool
		}
		for _, l := range listings {
			probes := []probe{{l.Added - 1, false}, {l.Added, true}}
			if l.HasRemoved {
				probes = append(probes, probe{l.Removed - 1, true}, probe{l.Removed, false})
			}
			for _, pr := range probes {
				if got := a.ListedAt(l.Prefix, pr.d); got != pr.want {
					t.Fatalf("trial %d: listing %v [%v, %v): ListedAt on %v = %v, want %v",
						trial, l.Prefix, l.Added, l.Removed, pr.d, got, pr.want)
				}
			}
		}
	}
}
