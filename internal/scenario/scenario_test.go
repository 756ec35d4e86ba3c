package scenario

import (
	"fmt"
	"strings"
	"testing"

	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
)

// genWorld memoizes one default world across the package's tests;
// generation takes a couple of seconds.
var worldCache *World

func genWorld(t *testing.T) *World {
	t.Helper()
	if worldCache == nil {
		w, err := Generate(DefaultParams())
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		worldCache = w
	}
	return worldCache
}

func TestListingPopulationCounts(t *testing.T) {
	w := genWorld(t)
	p := w.Params
	if got := len(w.Truth.Listings); got != p.TotalListings {
		t.Errorf("listings = %d, want %d", got, p.TotalListings)
	}

	var incident, ua, hj, ss, ks, mh, nr, withRecord int
	for _, lt := range w.Truth.Listings {
		if lt.Incident {
			incident++
		}
		has := func(c sbl.Category) bool {
			for _, got := range lt.Categories {
				if got == c {
					return true
				}
			}
			return false
		}
		if has(sbl.Unallocated) {
			ua++
		}
		if has(sbl.Hijacked) {
			hj++
		}
		if has(sbl.Snowshoe) {
			ss++
		}
		if has(sbl.KnownSpam) {
			ks++
		}
		if has(sbl.MaliciousHosting) {
			mh++
		}
		if has(sbl.NoRecord) {
			nr++
		} else {
			withRecord++
		}
	}
	if incident != p.IncidentListings {
		t.Errorf("incident = %d", incident)
	}
	if ua != p.UnallocListings {
		t.Errorf("unallocated = %d", ua)
	}
	if hj != p.HijackListings {
		t.Errorf("hijacked = %d, want %d", hj, p.HijackListings)
	}
	if ss != p.SnowshoeListings {
		t.Errorf("snowshoe = %d, want %d", ss, p.SnowshoeListings)
	}
	if ks != p.KnownSpamListings {
		t.Errorf("known-spam = %d, want %d", ks, p.KnownSpamListings)
	}
	if mh != p.MalHostListings {
		t.Errorf("malicious-hosting = %d, want %d", mh, p.MalHostListings)
	}
	if withRecord != 526 {
		t.Errorf("with SBL record = %d, want 526", withRecord)
	}
	if nr != 186 {
		t.Errorf("no-record = %d, want 186", nr)
	}
}

func TestDROPArchiveMatchesTruth(t *testing.T) {
	w := genWorld(t)
	listings := w.DROP.Listings()
	if len(listings) != len(w.Truth.Listings) {
		t.Fatalf("archive listings = %d, truth = %d", len(listings), len(w.Truth.Listings))
	}
	truthByPrefix := make(map[netx.Prefix]*ListingTruth)
	for _, lt := range w.Truth.Listings {
		truthByPrefix[lt.Prefix] = lt
	}
	for _, l := range listings {
		lt, ok := truthByPrefix[l.Prefix]
		if !ok {
			t.Errorf("archive has unexpected prefix %v", l.Prefix)
			continue
		}
		if l.Added != lt.Added {
			t.Errorf("%v added %v != truth %v", l.Prefix, l.Added, lt.Added)
		}
		if l.HasRemoved != lt.HasRemoved {
			t.Errorf("%v removal mismatch", l.Prefix)
		}
	}
}

func TestSBLRecordsDeletedForRemoved(t *testing.T) {
	w := genWorld(t)
	for _, lt := range w.Truth.Listings {
		_, ok := w.SBL.Get(lt.SBLRef)
		if lt.HasRemoved && ok {
			t.Errorf("%v removed but SBL record still present", lt.Prefix)
		}
		if !lt.HasRemoved && !ok {
			t.Errorf("%v present but SBL record missing", lt.Prefix)
		}
	}
}

func TestMRTStreamsLoadIntoRIB(t *testing.T) {
	w := genWorld(t)
	if len(w.MRT) != w.Params.Collectors {
		t.Fatalf("collector streams = %d", len(w.MRT))
	}
	ix := rib.NewIndex()
	for name, recs := range w.MRT {
		if err := ix.Load(name, recs); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	ix.Close(w.Params.Window.Last)
	if got := len(ix.Peers()); got != w.Params.Collectors*w.Params.PeersPerCollector {
		t.Errorf("peers = %d", got)
	}
	// The case-study prefix must be visible and RPKI-valid during hijack.
	cs := w.Truth.CaseStudy
	if !ix.Observed(cs.Prefix, cs.HijackDay+5) {
		t.Error("case-study hijack not observed")
	}
	if o, ok := ix.OriginAt(cs.Prefix, cs.HijackDay+5); !ok || o != cs.OwnerAS {
		t.Errorf("case-study origin = %v, %v", o, ok)
	}
	path, ok := ix.PathAt(cs.Prefix, cs.HijackDay+5)
	if !ok || !path.Contains(cs.HijackVia) {
		t.Errorf("case-study path = %v", path)
	}
}

func TestCaseStudyRPKIValidHijack(t *testing.T) {
	w := genWorld(t)
	cs := w.Truth.CaseStudy
	v := w.RPKI.ValidateAt(cs.Prefix, cs.OwnerAS, cs.HijackDay+5, nil)
	if v.String() != "valid" {
		t.Errorf("hijack announcement validity = %v, want valid", v)
	}
}

func TestUnallocatedListingsAreUnallocated(t *testing.T) {
	w := genWorld(t)
	for _, lt := range w.Truth.Listings {
		isUA := false
		for _, c := range lt.Categories {
			if c == sbl.Unallocated {
				isUA = true
			}
		}
		if isUA && w.RIR.AllocatedAt(lt.Prefix, lt.Added) {
			t.Errorf("%v listed as unallocated but allocated at %v", lt.Prefix, lt.Added)
		}
		if !isUA && !lt.HasRemoved && !w.RIR.AllocatedAt(lt.Prefix, lt.Added) {
			// Every non-UA listing must be inside allocated space when
			// listed (removed ones may be deallocated later, not before).
			t.Errorf("%v should be allocated at listing", lt.Prefix)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := DefaultParams()
	p.Scale = 512 // keep this test fast
	w1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Truth.Listings) != len(w2.Truth.Listings) {
		t.Fatal("listing counts differ across runs")
	}
	for i := range w1.Truth.Listings {
		a, b := w1.Truth.Listings[i], w2.Truth.Listings[i]
		if a.Prefix != b.Prefix || a.Added != b.Added || a.SBLRef != b.SBLRef {
			t.Fatalf("listing %d differs: %+v vs %+v", i, a, b)
		}
	}
	if w1.Truth.BackgroundN != w2.Truth.BackgroundN {
		t.Error("background counts differ")
	}
}

func TestWithdrawalRatesByCategory(t *testing.T) {
	w := genWorld(t)
	var hjN, hjW, uaN, uaW int
	for _, lt := range w.Truth.Listings {
		for _, c := range lt.Categories {
			switch c {
			case sbl.Hijacked:
				if !lt.Incident {
					hjN++
					if lt.HasWithdrawn {
						hjW++
					}
				}
			case sbl.Unallocated:
				uaN++
				if lt.HasWithdrawn {
					uaW++
				}
			}
		}
	}
	hjRate := float64(hjW) / float64(hjN)
	uaRate := float64(uaW) / float64(uaN)
	if hjRate < 0.55 || hjRate > 0.85 {
		t.Errorf("hijack withdrawal rate = %.3f, want ≈0.707", hjRate)
	}
	if uaRate < 0.38 || uaRate > 0.72 {
		t.Errorf("unallocated withdrawal rate = %.3f, want ≈0.548", uaRate)
	}
}

func TestAS0PolicyROAs(t *testing.T) {
	w := genWorld(t)
	p := w.Params
	// Before the APNIC policy date there are no AS0-TAL ROAs; after, the
	// remaining APNIC pool blocks are covered.
	before := w.RPKI.LiveAt(p.APNICAS0Day-1, []rpki.TrustAnchor{rpki.TAAPNICAS0})
	after := w.RPKI.LiveAt(p.APNICAS0Day+1, []rpki.TrustAnchor{rpki.TAAPNICAS0})
	if len(before) != 0 {
		t.Errorf("AS0 ROAs before policy = %d", len(before))
	}
	if len(after) == 0 {
		t.Error("no AS0 ROAs after policy date")
	}
}

func TestIRRJournalSane(t *testing.T) {
	w := genWorld(t)
	if w.IRR.Len() == 0 {
		t.Fatal("empty IRR journal")
	}
	// The 7-day-pre-listing coverage should land near 31.7%.
	covered := 0
	for _, lt := range w.Truth.Listings {
		rs := w.IRR.RoutesAt(lt.Prefix, lt.Added-1)
		if len(rs) > 0 {
			covered++
		}
	}
	frac := float64(covered) / float64(len(w.Truth.Listings))
	if frac < 0.24 || frac > 0.42 {
		t.Errorf("IRR coverage fraction = %.3f, want ≈0.317", frac)
	}
}

func TestTimexWindowEndpoints(t *testing.T) {
	p := DefaultParams()
	if p.Window.First != timex.MustParseDay("2019-06-05") || p.Window.Last != timex.MustParseDay("2022-03-30") {
		t.Errorf("window = %v", p.Window)
	}
	if p.Window.Days() != 1030 {
		t.Errorf("window days = %d", p.Window.Days())
	}
}

// TestMultiSeedRobustness generates small worlds under several seeds and
// checks that the paper-pinned invariants hold for each — guarding
// against calibration that only works for the default seed.
func TestMultiSeedRobustness(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		p := DefaultParams()
		p.Seed = seed
		p.Scale = 512
		w, err := Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := len(w.Truth.Listings); got != p.TotalListings {
			t.Errorf("seed %d: listings = %d", seed, got)
		}
		if got := len(w.DROP.Listings()); got != p.TotalListings {
			t.Errorf("seed %d: archive listings = %d", seed, got)
		}
		// The case study must exist and be RPKI-valid under every seed.
		cs := w.Truth.CaseStudy
		if v := w.RPKI.ValidateAt(cs.Prefix, cs.OwnerAS, cs.HijackDay+5, nil); v.String() != "valid" {
			t.Errorf("seed %d: case-study validity = %v", seed, v)
		}
		// Withdrawal-rate calibration within loose bounds.
		var hjN, hjW int
		for _, lt := range w.Truth.Listings {
			for _, c := range lt.Categories {
				if c == sbl.Hijacked && !lt.Incident {
					hjN++
					if lt.HasWithdrawn {
						hjW++
					}
				}
			}
		}
		if rate := float64(hjW) / float64(hjN); rate < 0.5 || rate > 0.9 {
			t.Errorf("seed %d: hijack withdrawal rate = %.3f", seed, rate)
		}
	}
}

// TestScaleFloor pins both sides of MinScale: below it Generate refuses
// up front with an error naming the floor; at it a world generates.
func TestScaleFloor(t *testing.T) {
	p := DefaultParams()
	for _, scale := range []int{-1, 0, 1, MinScale - 1} {
		p.Scale = scale
		_, err := Generate(p)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("floor of %d", MinScale)) {
			t.Errorf("scale %d: err = %v, want a refusal naming the floor %d", scale, err, MinScale)
		}
	}
	if testing.Short() {
		t.Skip("generates a world at the floor")
	}
	p.Scale = MinScale
	if _, err := Generate(p); err != nil {
		t.Errorf("scale %d (the floor): %v", MinScale, err)
	}
}
