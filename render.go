package dropscope

import (
	"fmt"
	"io"
	"sort"

	"dropscope/internal/analysis"
	"dropscope/internal/netx"
	"dropscope/internal/report"
	"dropscope/internal/rirstats"
	"dropscope/internal/sbl"
)

// renderAll writes each section in a fixed order. It reads only the
// Results value — never the pipeline — so it is deterministic over a
// given Results, whether that was produced by the parallel scheduler or
// the serial runner. Every section writes through one reportWriter, and
// renderAll returns the first write error.
func renderAll(w io.Writer, r Results) error {
	rw := &reportWriter{w: w}
	renderers := []func(*reportWriter, Results){
		renderFig1, renderFig2, renderTable1, renderSec5, renderFig4,
		renderFig5, renderFig6, renderFig7, renderTable2,
		renderCounterfactuals,
	}
	for _, fn := range renderers {
		fn(rw, r)
		rw.print("\n")
	}
	// The data-health section appears only when ingest saw damage, so a
	// lenient run over clean archives renders byte-identically to strict.
	if !r.Health.Clean() {
		renderHealth(rw, r)
		rw.print("\n")
	}
	return rw.err
}

// reportWriter is the report's one error path: it keeps the first write
// error, and every write after it is a no-op that returns it.
type reportWriter struct {
	w   io.Writer
	err error
}

func (rw *reportWriter) Write(p []byte) (int, error) {
	if rw.err != nil {
		return 0, rw.err
	}
	n, err := rw.w.Write(p)
	rw.err = err
	return n, err
}

func (rw *reportWriter) printf(format string, args ...any) { fmt.Fprintf(rw, format, args...) }

func (rw *reportWriter) print(s string) { io.WriteString(rw, s) }

// renderHealth reports what lenient ingest skipped and quarantined.
// Clean sources are omitted; totals cover every source.
func renderHealth(w *reportWriter, r Results) {
	t := report.NewTable("Data health — lenient ingest",
		"Source", "Records", "Skips", "Coverage", "Status")
	for _, s := range r.Health.Sources {
		if s.Skips.Total() == 0 && !s.Quarantined {
			continue
		}
		status := "degraded"
		if s.Quarantined {
			status = "QUARANTINED"
			if s.Note != "" {
				status += " (" + s.Note + ")"
			}
		}
		t.RawRow(s.Name,
			fmt.Sprint(s.Records),
			s.Skips.String(),
			fmt.Sprintf("%.3f", s.Coverage),
			status,
		)
	}
	w.print(t.String())
	w.printf("total records: %d; total skipped: %d; quarantined collectors: %d\n",
		r.Health.TotalRecords, r.Health.TotalSkipped, len(r.Health.Quarantined))
}

func renderFig1(w *reportWriter, r Results) {
	t := report.NewTable("Figure 1 — DROP classification",
		"Category", "Exclusive", "+Shared", "Space(/8 eq)", "Incident pfx")
	for _, row := range r.Fig1.Rows {
		t.RawRow(row.Category.Name(),
			fmt.Sprint(row.Exclusive),
			fmt.Sprint(row.Additional),
			fmt.Sprintf("%.3f", netx.SlashEquivalents(row.AddrSpace, 8)),
			fmt.Sprint(row.IncidentPrefixes),
		)
	}
	t.RawRow("TOTAL",
		fmt.Sprint(r.Fig1.TotalPrefixes), "",
		fmt.Sprintf("%.3f", netx.SlashEquivalents(r.Fig1.TotalSpace, 8)), "")
	w.print(t.String())
	w.printf("with SBL record: %d; multi-label: %d; incident space share: %.1f%%\n",
		r.Fig1.WithRecord, r.Fig1.OverlapPrefixes, r.Fig1.IncidentSpaceShare*100)
}

func renderFig2(w *reportWriter, r Results) {
	w.printf("Figure 2 — routing visibility around listing\n")
	for _, off := range analysis.Fig2Offsets {
		xs := r.Fig2.CDF[off]
		n30 := 0
		for _, x := range xs {
			if x == 0 {
				n30++
			}
		}
		w.printf("  day %+3d: %d listings, %d unobserved\n", off, len(xs), n30)
	}
	w.printf("withdrawn within 30 days: %.1f%% (HJ %.1f%%, UA %.1f%%)\n",
		r.Fig2.WithdrawnWithin30*100,
		r.Fig2.WithdrawnByCategory[sbl.Hijacked]*100,
		r.Fig2.WithdrawnByCategory[sbl.Unallocated]*100)
	w.printf("filtering peers detected: %d\n", len(r.Fig2.FilteringPeers))
	for _, ref := range r.Fig2.FilteringPeers {
		w.printf("  %s carries %.1f%% of listed prefixes\n",
			ref, r.Fig2.PeerCarryFraction[ref]*100)
	}
	w.printf("deallocation: MH space %.1f%%; removed listings %.1f%% (within a week: %.1f%%)\n",
		r.Dealloc.MalHostingSpaceDealloc*100, r.Dealloc.RemovedDealloc*100,
		r.Dealloc.RemovedWithinWeekOfDealloc*100)
	// Left panel: visibility CDF 30 days after listing.
	w.print(report.CDF(
		"CDF of listings by fraction of peers observing, 30 days after listing",
		"fraction of peers", r.Fig2.CDF[30], 60, 8))
}

func renderTable1(w *reportWriter, r Results) {
	t := report.NewTable("Table 1 — RPKI signing rate of prefixes without a ROA",
		"Region", "Never on DROP", "Removed from DROP", "Present on DROP")
	cell := func(c analysis.Table1Cell) string {
		return fmt.Sprintf("%.1f%% of %d", c.Rate()*100, c.Total)
	}
	for _, rir := range rirstats.AllRIRs {
		t.RawRow(string(rir), cell(r.Table1.Never[rir]), cell(r.Table1.Removed[rir]), cell(r.Table1.Present[rir]))
	}
	never, removed, present := r.Table1.Overall()
	t.RawRow("Overall", cell(never), cell(removed), cell(present))
	w.print(t.String())
	tot := r.Table1.RemovedSignedDifferentASN + r.Table1.RemovedSignedSameASN + r.Table1.RemovedSignedUnrouted
	if tot == 0 {
		return
	}
	w.printf("removed+signed: %.1f%% different ASN, %.1f%% same ASN, %.1f%% unrouted at listing\n",
		100*float64(r.Table1.RemovedSignedDifferentASN)/float64(tot),
		100*float64(r.Table1.RemovedSignedSameASN)/float64(tot),
		100*float64(r.Table1.RemovedSignedUnrouted)/float64(tot))
}

func renderSec5(w *reportWriter, r Results) {
	s := r.Sec5
	w.printf("Section 5 / Figure 3 — IRR effectiveness\n")
	w.printf("listings with route objects ≤7d pre-listing: %d (%.1f%% of listings, %.1f%% of space)\n",
		s.CoveredListings, s.CoveredFraction*100, s.CoveredSpaceFraction*100)
	w.printf("objects created ≤1 month before listing: %.1f%%; removed ≤1 month after: %.1f%%\n",
		s.CreatedMonthBefore*100, s.RemovedMonthAfter*100)
	w.printf("named hijacks: %d; with hijacker-ASN object: %d; without/different: %d\n",
		s.NamedHijacks, s.WithHijackerASNObject, s.WithoutOrDifferent)
	w.printf("distinct hijacker ASNs in objects: %d; top-3 ORG-IDs cover %d; pre-existing entries: %d\n",
		s.DistinctHijackerASNs, s.TopOrgsCover, s.PreexistingIRREntries)
	w.printf("common transit %s on %d prefixes of one ORG; late IRR creations: %d; unallocated with object: %d\n",
		s.CommonTransit, s.CommonTransitPrefixes, s.LateCreations, s.UnallocatedWithObject)

	// Figure 3 CDF.
	xs := make([]float64, len(s.DaysToBGP))
	for i, d := range s.DaysToBGP {
		xs[i] = float64(d)
	}
	w.print(report.CDF("Figure 3 — days from IRR object creation to BGP appearance",
		"days", xs, 60, 10))
}

func renderFig4(w *reportWriter, r Results) {
	f := r.Fig4
	w.printf("Figure 4 / §6.1 — RPKI-valid hijack case study\n")
	w.printf("hijacked listings: %d; RPKI-signed before listing: %d\n",
		f.HijackedListings, len(f.PreSigned))
	for _, h := range f.PreSigned {
		kind := "attacker-controlled ROA"
		if h.RPKIValidHijack {
			kind = "RPKI-VALID HIJACK"
		}
		w.printf("  %s listed %s: %s\n", h.Prefix, h.Listed, kind)
	}
	if len(f.Rows) == 0 {
		return
	}
	w.printf("case: %s origin %s via transit %s; %d siblings (%d listed)\n",
		f.CasePrefix, f.CaseOrigin, f.CaseTransit, f.SiblingCount, f.SiblingsListed)

	var min, max float64
	first := true
	var rows []report.GanttRow
	for _, row := range f.Rows {
		gr := report.GanttRow{Label: row.Prefix.String()}
		for _, sp := range row.Spans {
			from, to := float64(sp.From), float64(sp.To)
			if first || from < min {
				min = from
			}
			if first || to > max {
				max = to
			}
			first = false
			gr.Spans = append(gr.Spans, report.GanttSpan{
				From: from, To: to,
				Note: fmt.Sprintf("%s via %s", sp.Origin, sp.Transit),
			})
		}
		rows = append(rows, gr)
	}
	w.print(report.Gantt("origination timeline", min, max, rows, 60))
}

func renderFig5(w *reportWriter, r Results) {
	f := r.Fig5
	var signed, routed, unroutedNoROA, pct []float64
	for _, s := range f.Samples {
		signed = append(signed, netx.SlashEquivalents(s.ROASpace, 8))
		routed = append(routed, netx.SlashEquivalents(s.RoutedROASpace, 8))
		unroutedNoROA = append(unroutedNoROA, netx.SlashEquivalents(s.AllocatedUnroutedNoROA, 8))
		pct = append(pct, s.PercentRouted()*100)
	}
	firstDay := f.Samples[0].Day.String()
	lastDay := f.Samples[len(f.Samples)-1].Day.String()
	w.print(report.TimeSeries(
		"Figure 5 — routing status of ROAs (/8 equivalents, scaled world)",
		[2]string{firstDay, lastDay},
		[]report.Series{
			{Name: "signed space", Points: signed},
			{Name: "signed+routed", Points: routed},
			{Name: "alloc unrouted no-ROA", Points: unroutedNoROA},
		}, 68, 12))
	w.printf("percent of signed space routed: %.1f%% -> %.1f%%\n", pct[0], pct[len(pct)-1])
	w.printf("signed-unrouted at end: %.3f /8 eq\n",
		netx.SlashEquivalents(f.Samples[len(f.Samples)-1].SignedUnrouted, 8))
	var tot uint64
	for _, v := range f.UnroutedNoROAByRIR {
		tot += v
	}
	for _, rir := range rirstats.AllRIRs {
		if v := f.UnroutedNoROAByRIR[rir]; v > 0 && tot > 0 {
			w.printf("  alloc-unrouted-unsigned %s: %.1f%%\n", rir, 100*float64(v)/float64(tot))
		}
	}
	for _, h := range f.TopSignedUnroutedHoldings {
		w.printf("  top signed-unrouted holding %s: %.3f /8 eq\n", h.ASN, netx.SlashEquivalents(h.Space, 8))
	}
}

func renderFig6(w *reportWriter, r Results) {
	f := r.Fig6
	w.printf("Figure 6 — unallocated space on DROP\n")
	w.printf("events: %d\n", len(f.Events))
	rirs := make([]string, 0, len(f.ByRIR))
	for rir := range f.ByRIR {
		rirs = append(rirs, string(rir))
	}
	sort.Strings(rirs)
	for _, rir := range rirs {
		w.printf("  %s: %d\n", rir, f.ByRIR[rirstats.RIR(rir)])
	}
	if f.HasAPNICAS0 {
		w.printf("APNIC AS0 policy detected: %s\n", f.APNICAS0Day)
	}
	if f.HasLACNICAS0 {
		w.printf("LACNIC AS0 policy detected: %s\n", f.LACNICAS0Day)
	}
	w.printf("routed prefixes AS0 TALs would filter at window end: %d\n", f.FilterableAtEnd)
}

func renderFig7(w *reportWriter, r Results) {
	if len(r.Fig7) == 0 {
		return
	}
	var series []report.Series
	for _, rir := range rirstats.AllRIRs {
		s := report.Series{Name: string(rir)}
		for _, sample := range r.Fig7 {
			s.Points = append(s.Points, float64(sample.Pools[rir])/1e6)
		}
		series = append(series, s)
	}
	w.print(report.TimeSeries(
		"Figure 7 — RIR free pools (millions of addresses)",
		[2]string{r.Fig7[0].Day.String(), r.Fig7[len(r.Fig7)-1].Day.String()},
		series, 68, 12))
}

func renderTable2(w *reportWriter, r Results) {
	t := report.NewTable("Table 2 / Appendix A — SBL keyword classification", "Outcome", "Records")
	t.RawRow("one category", fmt.Sprint(r.Table2.OneCategory))
	t.RawRow("multi-label", fmt.Sprint(r.Table2.MultiLabel))
	t.RawRow("needs manual review", fmt.Sprint(r.Table2.NeedsReview))
	t.RawRow("naming a malicious ASN", fmt.Sprint(r.Table2.WithASN))
	t.RawRow("total", fmt.Sprint(r.Table2.Records))
	w.print(t.String())
}

func renderCounterfactuals(w *reportWriter, r Results) {
	w.printf("Counterfactuals — what the defenses could have stopped\n")
	rov := r.ROV
	w.printf("universal ROV on hijacked listings: %d blocked (invalid), %d accepted (RPKI-valid!),\n",
		rov.HijacksBlocked, rov.HijacksAccepted)
	w.printf("  %d uncovered (no ROA), %d unrouted at listing\n",
		rov.HijacksUncovered, rov.HijacksUnrouted)
	w.printf("squats: %d/%d blocked with production TALs; %d/%d with the RIR AS0 TALs loaded\n",
		rov.SquatsBlockedDefault, rov.SquatsTotal, rov.SquatsBlockedWithAS0, rov.SquatsTotal)
	a := r.AS0WhatIf
	w.printf("AS0 remediation: %.4f /8 eq of signed-unrouted forgeable space;\n",
		netx.SlashEquivalents(a.VulnerableSpace, 8))
	w.printf("  top-3 holders adopting AS0 removes %.1f%%; %.4f /8 eq remains unsigned+unrouted\n",
		pct(a.RemediedByTop3, a.VulnerableSpace), netx.SlashEquivalents(a.UnsignedUnroutedSpace, 8))
	m := r.MaxLength
	w.printf("maxLength audit: %d/%d ROAs loose; %d forgeable sub-prefix surfaces (%.4f /8 eq)\n",
		m.LooseMaxLength, m.ROAs, m.VulnerableLoose, netx.SlashEquivalents(m.ForgeableSpace, 8))
	pe := r.PathEnd
	w.printf("path-end validation (%d records enrolled): %d hijacks caught, %d missed,\n",
		pe.RecordsBuilt, pe.HijacksInvalid, pe.HijacksValid)
	w.printf("  %d silent (abandoned origins), case-study hijack caught: %v\n",
		pe.HijacksNotFound, pe.CaseStudyCaught)

	if len(r.Hijackers) > 0 {
		w.printf("serial-hijacker profiles (≥3 prefixes, ≥50%% listed, brief announcements):\n")
		for i, h := range r.Hijackers {
			if i == 8 {
				w.printf("  ... and %d more\n", len(r.Hijackers)-8)
				break
			}
			w.printf("  %-9s %3d prefixes, %3d listed (%.0f%%), median span %d days\n",
				h.Origin, h.PrefixCount, h.ListedCount, h.ListedFraction*100, h.MedianSpanDays)
		}
	}
	if n := len(r.MOAS.Samples); n > 0 {
		last := r.MOAS.Samples[n-1]
		w.printf("MOAS conflicts at window end: %d (%d listed on DROP)\n", last.Conflicts, last.Listed)
	}
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
