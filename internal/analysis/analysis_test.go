package analysis

import (
	"math"
	"strings"
	"testing"

	"dropscope/internal/rirstats"
	"dropscope/internal/sbl"
	"dropscope/internal/scenario"
)

var (
	cachedWorld    *scenario.World
	cachedPipeline *Pipeline
)

func pipeline(t *testing.T) (*scenario.World, *Pipeline) {
	t.Helper()
	if cachedPipeline == nil {
		w, err := scenario.Generate(scenario.DefaultParams())
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		ds, streams := worldDataset(w)
		p, err := newPipeline(ds, streams, 0)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		cachedWorld, cachedPipeline = w, p
	}
	return cachedWorld, cachedPipeline
}

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.3f", name, got, want, tol)
	}
}

func TestPipelineRejectsIncompleteDataset(t *testing.T) {
	if _, err := NewWithOptions(Dataset{}, Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestPipelineRejectsInvertedWindow(t *testing.T) {
	_, p := pipeline(t)
	ds := p.Dataset()
	ds.Window.First, ds.Window.Last = ds.Window.Last, ds.Window.First
	if _, err := NewWithOptions(ds, Options{Index: p.Index}); err == nil || !strings.Contains(err.Error(), ds.Window.String()) {
		t.Errorf("window %s: err = %v, want one naming the window", ds.Window, err)
	}
	ds.Window.First = ds.Window.Last
	if _, err := NewWithOptions(ds, Options{Index: p.Index}); err != nil {
		t.Errorf("one-day window %s: %v", ds.Window, err)
	}
}

func TestFig1(t *testing.T) {
	_, p := pipeline(t)
	f := p.Fig1Classification()
	if f.TotalPrefixes != 712 {
		t.Errorf("total = %d", f.TotalPrefixes)
	}
	if f.WithRecord != 526 {
		t.Errorf("with record = %d", f.WithRecord)
	}
	counts := make(map[sbl.Category]int)
	for _, r := range f.Rows {
		counts[r.Category] = r.Exclusive + r.Additional
	}
	if counts[sbl.Hijacked] != 179 {
		t.Errorf("HJ = %d, want 179", counts[sbl.Hijacked])
	}
	if counts[sbl.Snowshoe] != 220 {
		t.Errorf("SS = %d, want 220", counts[sbl.Snowshoe])
	}
	if counts[sbl.Unallocated] != 40 {
		t.Errorf("UA = %d, want 40", counts[sbl.Unallocated])
	}
	if counts[sbl.NoRecord] != 186 {
		t.Errorf("NR = %d, want 186", counts[sbl.NoRecord])
	}
	if f.OverlapPrefixes != 15 {
		t.Errorf("overlap prefixes = %d, want 15", f.OverlapPrefixes)
	}
	// The AFRINIC incidents dominate address space (paper: 48.8%).
	near(t, "incident space share", f.IncidentSpaceShare, 0.488, 0.15)
	// Snowshoe: many prefixes, small space share (paper: 8.5%).
	var ssSpace float64
	for _, r := range f.Rows {
		if r.Category == sbl.Snowshoe {
			ssSpace = float64(r.AddrSpace) / float64(f.TotalSpace)
		}
	}
	if ssSpace > 0.15 {
		t.Errorf("snowshoe space share = %.3f, should be small", ssSpace)
	}
}

func TestFig2VisibilityAndFiltering(t *testing.T) {
	w, p := pipeline(t)
	f := p.Fig2Visibility()

	// Paper: 19% withdrawn within 30 days overall; 70.7% for hijacked,
	// 54.8% for unallocated.
	near(t, "withdrawn within 30d", f.WithdrawnWithin30, 0.19, 0.07)
	near(t, "hijack withdrawal", f.WithdrawnByCategory[sbl.Hijacked], 0.707, 0.12)
	near(t, "unalloc withdrawal", f.WithdrawnByCategory[sbl.Unallocated], 0.548, 0.17)

	// Exactly the planted filtering peers must be detected.
	if len(f.FilteringPeers) != len(w.Truth.FilterPeers) {
		t.Fatalf("filtering peers = %v, want %d", f.FilteringPeers, len(w.Truth.FilterPeers))
	}
	want := make(map[string]bool)
	for _, fp := range w.Truth.FilterPeers {
		want[fp.Collector+"/"+fp.PeerAddr.String()] = true
	}
	for _, ref := range f.FilteringPeers {
		if !want[ref.Collector+"/"+ref.Addr.String()] {
			t.Errorf("unexpected filtering peer %v", ref)
		}
	}

	// CDF sanity: visibility at -1 should be high for most prefixes, and
	// the +30 curve must sit below the -1 curve on average.
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m1, m30 := mean(f.CDF[-1]), mean(f.CDF[30]); m30 >= m1 {
		t.Errorf("mean visibility +30 (%.3f) should be below -1 (%.3f)", m30, m1)
	}
}

func TestDealloc(t *testing.T) {
	_, p := pipeline(t)
	d := p.DeallocAnalysis()
	near(t, "MH space dealloc", d.MalHostingSpaceDealloc, 0.174, 0.12)
	near(t, "removed dealloc", d.RemovedDealloc, 0.088, 0.06)
	if d.RemovedDealloc > 0 && d.RemovedWithinWeekOfDealloc == 0 {
		t.Error("no removed-within-week-of-dealloc cases found")
	}
}

func TestTable1(t *testing.T) {
	_, p := pipeline(t)
	tb := p.Table1RPKIUptake()
	never, removed, present := tb.Overall()

	// Paper overall rates: never 22.3%, removed 42.5%, present 13.8%.
	near(t, "never rate", never.Rate(), 0.223, 0.08)
	near(t, "removed rate", removed.Rate(), 0.425, 0.15)
	if present.Rate() >= removed.Rate() {
		t.Errorf("present rate (%.3f) should be below removed rate (%.3f)",
			present.Rate(), removed.Rate())
	}
	if never.Rate() >= removed.Rate() {
		t.Errorf("base rate (%.3f) should be below removed rate (%.3f)",
			never.Rate(), removed.Rate())
	}

	// Per-RIR populations match Table 1's row counts.
	if n := tb.Removed[rirstats.RIPE].Total; n < 70 || n > 90 {
		t.Errorf("RIPE removed population = %d, want ≈83", n)
	}
	if n := tb.Present[rirstats.ARIN].Total; n < 155 || n > 180 {
		t.Errorf("ARIN present population = %d, want ≈169", n)
	}

	// §4.2: removed-and-signed mostly signed with a different ASN.
	tot := tb.RemovedSignedDifferentASN + tb.RemovedSignedSameASN + tb.RemovedSignedUnrouted
	if tot == 0 {
		t.Fatal("no removed-and-signed listings")
	}
	diffFrac := float64(tb.RemovedSignedDifferentASN) / float64(tot)
	near(t, "removed signed different ASN", diffFrac, 0.823, 0.15)
}

func TestSec5IRR(t *testing.T) {
	_, p := pipeline(t)
	s := p.Sec5IRR()

	near(t, "IRR coverage fraction", s.CoveredFraction, 0.317, 0.08)
	if s.CoveredSpaceFraction < 0.5 {
		t.Errorf("IRR covered space = %.3f, want ≈0.688", s.CoveredSpaceFraction)
	}
	near(t, "created month before", s.CreatedMonthBefore, 0.32, 0.15)
	near(t, "removed month after", s.RemovedMonthAfter, 0.43, 0.20)

	if s.NamedHijacks != 130 {
		t.Errorf("named hijacks = %d, want 130", s.NamedHijacks)
	}
	if s.WithHijackerASNObject != 57 {
		t.Errorf("hijacker-ASN objects = %d, want 57", s.WithHijackerASNObject)
	}
	if s.WithoutOrDifferent != 73 {
		t.Errorf("without/different = %d, want 73", s.WithoutOrDifferent)
	}
	if s.DistinctHijackerASNs != 13 {
		t.Errorf("distinct hijacker ASNs = %d, want 13", s.DistinctHijackerASNs)
	}
	if s.TopOrgsCover != 49 {
		t.Errorf("top-3 orgs cover = %d, want 49", s.TopOrgsCover)
	}
	if s.CommonTransit != 50509 {
		t.Errorf("common transit = %v, want AS50509", s.CommonTransit)
	}
	if s.CommonTransitPrefixes != 15 {
		t.Errorf("common transit prefixes = %d, want 15", s.CommonTransitPrefixes)
	}
	if s.PreexistingIRREntries != 5 {
		t.Errorf("pre-existing IRR entries = %d, want 5", s.PreexistingIRREntries)
	}
	if s.LateCreations != 2 {
		t.Errorf("late creations = %d, want 2", s.LateCreations)
	}
	if s.UnallocatedWithObject != 1 {
		t.Errorf("unallocated with object = %d, want 1", s.UnallocatedWithObject)
	}

	// Figure 3: announcements follow object creation within a week.
	within7 := 0
	for _, d := range s.DaysToBGP {
		if d >= 0 && d <= 7 {
			within7++
		}
	}
	if frac := float64(within7) / float64(len(s.DaysToBGP)); frac < 0.9 {
		t.Errorf("BGP-within-7-days fraction = %.3f", frac)
	}
}

func TestFig4CaseStudy(t *testing.T) {
	w, p := pipeline(t)
	f := p.Fig4RPKIValidHijacks()

	if f.HijackedListings != 179-45 {
		t.Errorf("non-incident hijacked = %d, want 134", f.HijackedListings)
	}
	if len(f.PreSigned) != 3 {
		t.Fatalf("pre-signed hijacks = %d, want 3", len(f.PreSigned))
	}
	var attackerControlled, rpkiValid int
	for _, h := range f.PreSigned {
		if h.AttackerControlledROA {
			attackerControlled++
		}
		if h.RPKIValidHijack {
			rpkiValid++
		}
	}
	if attackerControlled != 2 {
		t.Errorf("attacker-controlled ROAs = %d, want 2", attackerControlled)
	}
	if rpkiValid != 1 {
		t.Errorf("RPKI-valid hijacks = %d, want 1", rpkiValid)
	}

	cs := w.Truth.CaseStudy
	if f.CasePrefix != cs.Prefix {
		t.Errorf("case prefix = %v, want %v", f.CasePrefix, cs.Prefix)
	}
	if f.CaseOrigin != cs.OwnerAS || f.CaseTransit != cs.HijackVia {
		t.Errorf("case actors = %v via %v", f.CaseOrigin, f.CaseTransit)
	}
	if f.SiblingCount != len(cs.Siblings) {
		t.Errorf("siblings = %d, want %d", f.SiblingCount, len(cs.Siblings))
	}
	if f.SiblingsListed != 3 {
		t.Errorf("siblings listed = %d, want 3", f.SiblingsListed)
	}
}

func TestFig5ROAStatus(t *testing.T) {
	_, p := pipeline(t)
	f := p.Fig5ROAStatus()
	if len(f.Samples) < 30 {
		t.Fatalf("samples = %d", len(f.Samples))
	}
	first, last := f.Samples[0], f.Samples[len(f.Samples)-1]

	// Signed space grows substantially (paper: 20 -> 49.1 /8).
	growth := float64(last.ROASpace) / float64(first.ROASpace)
	if growth < 1.6 || growth > 4.0 {
		t.Errorf("ROA space growth = %.2fx, want ≈2.4x", growth)
	}
	// Percent routed declines (paper: 97.1% -> 90.5%).
	if first.PercentRouted() < 0.90 {
		t.Errorf("initial %%routed = %.3f, want ≈0.97", first.PercentRouted())
	}
	if last.PercentRouted() >= first.PercentRouted() {
		t.Errorf("%%routed should decline: %.3f -> %.3f", first.PercentRouted(), last.PercentRouted())
	}
	near(t, "final %routed", last.PercentRouted(), 0.905, 0.05)

	// ARIN holds the bulk of allocated-unrouted-unsigned (paper: 60.8%).
	var total uint64
	for _, v := range f.UnroutedNoROAByRIR {
		total += v
	}
	if total == 0 {
		t.Fatal("no allocated-unrouted-unsigned space")
	}
	arinShare := float64(f.UnroutedNoROAByRIR[rirstats.ARIN]) / float64(total)
	near(t, "ARIN unrouted-unsigned share", arinShare, 0.608, 0.15)

	// The top signed-unrouted holding is the Amazon stand-in (AS16509).
	if len(f.TopSignedUnroutedHoldings) == 0 || f.TopSignedUnroutedHoldings[0].ASN != 16509 {
		t.Errorf("top holdings = %+v", f.TopSignedUnroutedHoldings)
	}
}

func TestFig6Unallocated(t *testing.T) {
	w, p := pipeline(t)
	f := p.Fig6UnallocatedTimeline()
	if len(f.Events) != 40 {
		t.Errorf("unallocated events = %d, want 40", len(f.Events))
	}
	if f.ByRIR[rirstats.LACNIC] != 19 || f.ByRIR[rirstats.Afrinic] != 12 {
		t.Errorf("clusters = %+v, want LACNIC 19, AFRINIC 12", f.ByRIR)
	}
	if !f.HasAPNICAS0 || f.APNICAS0Day != w.Params.APNICAS0Day {
		t.Errorf("APNIC AS0 day = %v (%v)", f.APNICAS0Day, f.HasAPNICAS0)
	}
	if !f.HasLACNICAS0 || f.LACNICAS0Day != w.Params.LACNICAS0Day {
		t.Errorf("LACNIC AS0 day = %v (%v)", f.LACNICAS0Day, f.HasLACNICAS0)
	}
	// Paper: ≈30 routed prefixes at window end would be filtered by the
	// AS0 TALs.
	if f.FilterableAtEnd < 20 || f.FilterableAtEnd > 40 {
		t.Errorf("filterable at end = %d, want ≈30", f.FilterableAtEnd)
	}
}

func TestFig7FreePools(t *testing.T) {
	_, p := pipeline(t)
	samples := p.Fig7FreePools()
	if len(samples) < 30 {
		t.Fatalf("samples = %d", len(samples))
	}
	first, last := samples[0], samples[len(samples)-1]
	// AFRINIC has the largest pool throughout (paper Fig 7).
	for _, rir := range rirstats.AllRIRs {
		if rir != rirstats.Afrinic && first.Pools[rir] >= first.Pools[rirstats.Afrinic] {
			t.Errorf("%s pool (%d) >= AFRINIC (%d)", rir, first.Pools[rir], first.Pools[rirstats.Afrinic])
		}
	}
	// Pools decline as RIRs allocate.
	for _, rir := range []rirstats.RIR{rirstats.Afrinic, rirstats.LACNIC} {
		if last.Pools[rir] >= first.Pools[rir] {
			t.Errorf("%s pool did not decline: %d -> %d", rir, first.Pools[rir], last.Pools[rir])
		}
	}
}

func TestTable2(t *testing.T) {
	_, p := pipeline(t)
	tb := p.Table2SBLBreakdown()
	if tb.Records != 526 {
		t.Errorf("records = %d, want 526", tb.Records)
	}
	// Appendix A: 90% one keyword, 2.7% two, 7.3% none. Our corpus is
	// cleaner: nearly all one-label, 15 multi-label, none unreviewable.
	if tb.OneCategory+tb.MultiLabel+tb.NeedsReview != tb.Records {
		t.Error("breakdown does not sum")
	}
	if tb.MultiLabel != 15 {
		t.Errorf("multi-label = %d, want 15", tb.MultiLabel)
	}
	if tb.WithASN < 130 {
		t.Errorf("records naming ASNs = %d, want ≥130", tb.WithASN)
	}
}
